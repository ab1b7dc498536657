// Table 1: speed of the convert and slogmerge utilities as the raw event
// count scales — the paper's scalability claim is that sec/event stays
// roughly constant from 40 K to 11.2 M raw events (the test program with
// 4 MPI tasks of 4 threads each, run at different problem sizes).
//
// Prints the same two rows the paper reports, then runs per-event
// microbenchmarks on a mid-size trace. Set UTE_TABLE1_SMALL=1 to skip
// the two multi-million-event rows (for quick runs).
// A parallel-pipeline sweep (--jobs {1,2,4,8} by default, or {1,N} when
// run with --jobs N) reports per-stage speedup and records/s and writes
// BENCH_pipeline.json; each parallel run is byte-compared against the
// sequential reference before its numbers are reported, and the bench
// exits 1 when any output differs.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "support/file_io.h"
#include "workloads/pipeline.h"
#include "convert/converter.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "mpisim/mpi_runtime.h"
#include "sim/simulation.h"
#include "slog/slog_writer.h"
#include "support/text.h"
#include "workloads/workloads.h"

// The CMake build type BENCH_pipeline.json records (bench/CMakeLists.txt).
#ifndef UTE_BUILD_TYPE
#define UTE_BUILD_TYPE "unknown"
#endif

namespace {

using namespace ute;

struct SizedRun {
  std::uint64_t rawEvents = 0;
  std::vector<std::string> rawFiles;
  std::vector<std::string> intervalFiles;
  double convertSecPerEvent = 0;
  double slogmergeSecPerEvent = 0;
};

SizedRun runAtSize(const std::string& dir, std::uint64_t targetEvents) {
  SizedRun out;
  // Trace generation (not part of the utility timings).
  TestProgramOptions workload;
  workload.iterations = testProgramIterationsFor(targetEvents);
  SimulationConfig config = testProgram(workload);
  config.trace.filePrefix = dir + "/t" + std::to_string(targetEvents);
  {
    Simulation sim(std::move(config));
    MpiRuntime mpi(sim);
    sim.setMpiService(&mpi);
    sim.run();
    out.rawFiles = sim.traceFilePaths();
    for (NodeId n = 0; static_cast<std::size_t>(n) <
                       sim.config().nodes.size(); ++n) {
      out.rawEvents += sim.sessionStats(n).eventsCut;
    }
  }

  // Convert, timed (Table 1 row 1).
  auto t0 = benchutil::now();
  const auto converted =
      convertRun(out.rawFiles, dir + "/t" + std::to_string(targetEvents));
  out.convertSecPerEvent =
      benchutil::secondsSince(t0) / static_cast<double>(out.rawEvents);
  for (const auto& c : converted) out.intervalFiles.push_back(c.outputPath);

  // slogmerge (merge + SLOG emission in one pass), timed (row 2).
  const Profile profile = makeStandardProfile();
  std::vector<ThreadEntry> threads;
  std::map<std::uint32_t, std::string> markers;
  for (const std::string& path : out.intervalFiles) {
    IntervalFileReader reader(path);
    threads.insert(threads.end(), reader.threads().begin(),
                   reader.threads().end());
    for (const auto& [id, name] : reader.markers()) markers.emplace(id, name);
  }
  t0 = benchutil::now();
  {
    IntervalMerger merger(out.intervalFiles, profile);
    SlogWriter slog(dir + "/t" + std::to_string(targetEvents) + ".slog",
                    SlogOptions{}, profile, threads, markers);
    merger.mergeTo(dir + "/t" + std::to_string(targetEvents) + ".merged.uti",
                   [&slog](const RecordView& r) { slog.addRecord(r); });
    slog.close();
  }
  out.slogmergeSecPerEvent =
      benchutil::secondsSince(t0) / static_cast<double>(out.rawEvents);
  return out;
}

std::string gScratch;
std::vector<std::string> gMidIntervalFiles;
std::vector<std::string> gMidRawFiles;

void printTable1() {
  // The paper's six problem sizes (raw event counts).
  std::vector<std::uint64_t> sizes = {40282, 128378, 254225,
                                      641354, 4613568, 11216936};
  if (std::getenv("UTE_TABLE1_SMALL") != nullptr) sizes.resize(4);

  std::printf("=== Table 1: utility speed (sec/event), test program with 4 "
              "MPI tasks x 4 threads ===\n");
  std::vector<SizedRun> runs;
  for (std::uint64_t target : sizes) {
    runs.push_back(runAtSize(gScratch, target));
  }
  std::printf("%-24s", "# raw events");
  for (const SizedRun& r : runs) {
    std::printf(" %12s", withCommas(r.rawEvents).c_str());
  }
  std::printf("\n%-24s", "sec/event in convert");
  for (const SizedRun& r : runs) {
    std::printf(" %12.7f", r.convertSecPerEvent);
  }
  std::printf("\n%-24s", "sec/event in slogmerge");
  for (const SizedRun& r : runs) {
    std::printf(" %12.7f", r.slogmergeSecPerEvent);
  }
  const double first = runs.front().convertSecPerEvent;
  const double last = runs.back().convertSecPerEvent;
  std::printf("\nconvert sec/event ratio largest/smallest: %.2f "
              "(the paper's claim: roughly constant)\n\n",
              last / first);
  gMidRawFiles = runs[1].rawFiles;
  gMidIntervalFiles = runs[1].intervalFiles;
}

struct SweepPoint {
  int jobs = 1;
  double convertSeconds = 0;
  double mergeSeconds = 0;
  std::uint64_t records = 0;
  bool identical = true;  ///< outputs byte-identical to --jobs 1
};

/// Runs convert+slogmerge at each job count on one 4-node workload and
/// verifies the parallel outputs byte-match the sequential reference;
/// false when any of them differs.
bool printPipelineSweep(const std::vector<int>& jobsList) {
  std::printf("=== Parallel pipeline sweep: test program on 4 nodes ===\n");
  TestProgramOptions workload;
  workload.iterations = testProgramIterationsFor(
      std::getenv("UTE_TABLE1_SMALL") != nullptr ? 40282 : 641354);
  workload.nodes = 4;

  std::vector<SweepPoint> points;
  std::vector<std::vector<std::uint8_t>> reference;  // jobs=1 outputs
  std::string referenceMerged, referenceSlog;
  for (const int jobs : jobsList) {
    PipelineOptions options;
    options.dir = gScratch + "/sweep_j" + std::to_string(jobs);
    options.name = "sweep";
    options.convert.jobs = jobs;
    options.merge.jobs = jobs;
    const PipelineResult run =
        runPipeline(testProgram(workload), options);

    SweepPoint p;
    p.jobs = jobs;
    p.convertSeconds = run.convertSeconds;
    p.mergeSeconds = run.mergeSeconds;
    p.records = run.merge.recordsIn;
    if (reference.empty()) {
      for (const std::string& f : run.intervalFiles) {
        reference.push_back(readWholeFile(f));
      }
      referenceMerged = run.mergedFile;
      referenceSlog = run.slogFile;
    } else {
      for (std::size_t i = 0; i < run.intervalFiles.size(); ++i) {
        p.identical = p.identical &&
                      readWholeFile(run.intervalFiles[i]) == reference[i];
      }
      p.identical = p.identical && readWholeFile(run.mergedFile) ==
                                       readWholeFile(referenceMerged);
      p.identical = p.identical &&
                    readWholeFile(run.slogFile) == readWholeFile(referenceSlog);
    }
    points.push_back(p);
  }

  const double base =
      points.front().convertSeconds + points.front().mergeSeconds;
  std::printf("%6s %12s %12s %10s %14s %10s\n", "jobs", "convert(s)",
              "merge(s)", "speedup", "records/s", "identical");
  for (const SweepPoint& p : points) {
    const double total = p.convertSeconds + p.mergeSeconds;
    std::printf("%6d %12.3f %12.3f %9.2fx %14s %10s\n", p.jobs,
                p.convertSeconds, p.mergeSeconds,
                total == 0 ? 0.0 : base / total,
                withCommas(total == 0 ? 0
                                      : static_cast<std::uint64_t>(
                                            static_cast<double>(p.records) /
                                            total))
                    .c_str(),
                p.identical ? "yes" : "NO");
  }
  std::printf("\n");

  bool identical = true;
  for (const SweepPoint& p : points) identical = identical && p.identical;

  std::FILE* json = std::fopen("BENCH_pipeline.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_pipeline.json\n");
    return identical;
  }
  std::fprintf(json, "{\n  \"workload\": \"test program, 4 nodes\",\n"
               "  \"nproc\": %u,\n  \"build_type\": \"%s\",\n"
               "  \"records\": %llu,\n  \"points\": [\n",
               std::thread::hardware_concurrency(), UTE_BUILD_TYPE,
               static_cast<unsigned long long>(points.front().records));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const double total = p.convertSeconds + p.mergeSeconds;
    std::fprintf(
        json,
        "    {\"jobs\": %d, \"convert_seconds\": %.6f, "
        "\"merge_seconds\": %.6f, \"speedup\": %.4f, "
        "\"records_per_second\": %.1f, \"identical_to_jobs1\": %s}%s\n",
        p.jobs, p.convertSeconds, p.mergeSeconds,
        total == 0 ? 0.0 : base / total,
        total == 0 ? 0.0 : static_cast<double>(p.records) / total,
        p.identical ? "true" : "false", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_pipeline.json\n\n");
  return identical;
}

void BM_ConvertPerEvent(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto results =
        convertRun(gMidRawFiles, gScratch + "/bm_convert");
    for (const auto& r : results) events += r.rawEvents;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ConvertPerEvent)->Unit(benchmark::kMillisecond);

void BM_SlogmergePerEvent(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  std::uint64_t records = 0;
  for (auto _ : state) {
    IntervalMerger merger(gMidIntervalFiles, profile);
    SlogWriter slog(gScratch + "/bm.slog", SlogOptions{}, profile, {}, {});
    const MergeResult result = merger.mergeTo(
        gScratch + "/bm.merged.uti",
        [&slog](const RecordView& r) { slog.addRecord(r); });
    slog.close();
    records += result.recordsIn;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_SlogmergePerEvent)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip a leading-edge --jobs N (benchmark::Initialize rejects unknown
  // flags): when given, sweep {1, N} instead of the default ladder.
  std::vector<int> jobsList = {1, 2, 4, 8};
  std::vector<char*> args(argv, argv + argc);
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (std::strcmp(args[i], "--jobs") == 0 && i + 1 < args.size()) {
      jobsList = {1, std::atoi(args[i + 1])};
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      break;
    }
  }
  int newArgc = static_cast<int>(args.size());

  gScratch = ute::makeScratchDir("bench_table1");
  printTable1();
  if (!printPipelineSweep(jobsList)) {
    std::fprintf(stderr, "a --jobs N output differs from --jobs 1\n");
    return 1;
  }
  return ute::benchutil::runBenchmarks(newArgc, args.data());
}
