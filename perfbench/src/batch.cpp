// Workload `batch`: one seeded 4-node test-program run pushed through the
// whole post-mortem chain — convertRun -> IntervalMerger::mergeTo with
// the SlogWriter sink -> computeMetrics + writeMetricsFile -> the
// predefined statistics tables -> buildSlogWindowView + renderSvg over a
// fixed window set plus the preview — alternately at --jobs 1 and at
// --jobs nproc. Every iteration's files must byte-match the first
// --jobs 1 iteration, and its tables and pictures must hash the same.
#include <algorithm>
#include <filesystem>
#include <random>
#include <thread>

#include "analysis/metrics.h"
#include "analysis/metrics_io.h"
#include "common.h"
#include "inputs.h"
#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "slog/slog_reader.h"
#include "stats/engine.h"
#include "viz/svg_render.h"
#include "viz/timeline_model.h"
#include "workloads/workloads.h"

namespace uteperf {

namespace {

constexpr std::uint64_t kTargetRawEvents = 250'000;
/// Set-ups per run: one before the timed loop, the rest spread through
/// it, so set-up timing samples the same machine phases as the loop.
constexpr std::size_t kSetups = 32;
constexpr int kWindows = 192;  // plus the preview

// A window at position p in [0, 1) spans the middle half of SLOG frame
// k = p * frames: every view decodes exactly one frame, so the work per
// view does not depend on where the seed puts it.

struct ChainRun {
  double seconds = 0;
  double convertS = 0, mergeS = 0, analysisS = 0, statsS = 0;
  double sinkS = 0, closeS = 0;
  std::uint64_t convertAllocs = 0, mergeAllocs = 0;
  std::uint64_t allocs = 0;  ///< the whole chain (countDetail only)
  ProcIo ioBefore, ioAfter;
  std::uint64_t records = 0, recordsOut = 0, intervalRecords = 0;
  std::uint64_t contentHash = 0;
  std::size_t frames = 0;
  std::vector<std::string> files;  ///< every output file, fixed order
  std::vector<double> renderMs;
};

ChainRun runChain(const RawRun& raw, const std::string& dir, int jobs,
                  const std::vector<double>& windows, Tracer& tracer,
                  bool countDetail) {
  const std::string prefix = dir + "/run";
  const ute::Profile profile = ute::makeStandardProfile();
  ChainRun out;
  std::uint64_t allocs0 = 0;
  if (countDetail) {
    allocs0 = allocMark();
    out.ioBefore = readProcIo();
  }
  const std::uint32_t root = tracer.reserve();

  // convert, then merge + SLOG in one pass
  ChainOptions chainOptions;
  chainOptions.jobs = jobs;
  chainOptions.splitSink = tracer.enabled() || countDetail;
  const ChainOutputs chain =
      convertAndMerge(raw.rawFiles, prefix, chainOptions);
  const std::int64_t t0 = chain.startNs;
  out.intervalRecords = chain.intervalRecords;
  out.convertAllocs = chain.convertAllocs;
  out.convertS = static_cast<double>(chain.convertEndNs - t0) * 1e-9;
  tracer.add("convert.convertRun", root, t0, chain.convertEndNs);
  const std::uint32_t mergeSpan = tracer.reserve();
  tracer.add("slog.addRecord", mergeSpan, chain.convertEndNs,
             chain.convertEndNs + chain.sinkNs, chain.merge.recordsOut);
  tracer.addReserved(mergeSpan, "merge.mergeTo", root, chain.convertEndNs,
                     chain.mergeEndNs);
  tracer.add("slog.close", root, chain.mergeEndNs, chain.closeEndNs);
  out.mergeAllocs = chain.mergeAllocs - chain.sinkAllocs;
  out.sinkS = static_cast<double>(chain.sinkNs) * 1e-9;
  out.closeS = static_cast<double>(chain.closeEndNs - chain.mergeEndNs) * 1e-9;
  out.mergeS = static_cast<double>(chain.closeEndNs - chain.convertEndNs) * 1e-9;
  out.records = chain.merge.recordsIn;
  out.recordsOut = chain.merge.recordsOut;
  // analysis: metrics file
  std::int64_t s = nowNs();
  {
    ute::SlogReader reader(prefix + ".slog");
    ute::MetricsOptions metricsOptions;
    metricsOptions.jobs = jobs;
    ute::writeMetricsFile(prefix + ".utm",
                          ute::computeMetrics(reader, metricsOptions));
  }
  out.analysisS = secondsSince(s);
  tracer.add("analysis.computeMetrics", root, s, nowNs());

  // predefined statistics tables on the merged file
  s = nowNs();
  {
    ute::IntervalFileReader mergedFile(prefix + ".merged.uti");
    ute::StatsEngine engine(profile);
    for (const ute::StatsTable& t :
         engine.runProgram(ute::predefinedTablesProgram(), mergedFile)) {
      const std::string tsv = t.tsv();
      out.contentHash = fnv1a(tsv.data(), tsv.size(), out.contentHash + 1);
    }
  }
  out.statsS = secondsSince(s);
  tracer.add("stats.runProgram", root, s, nowNs());

  // views: the fixed window set plus the preview
  {
    ute::SlogReader reader(prefix + ".slog");
    out.frames = reader.frameIndex().size();
    const auto& index = reader.frameIndex();
    for (const double position : windows) {
      const std::int64_t r0 = nowNs();
      const auto& frame = index[static_cast<std::size_t>(
          position * static_cast<double>(index.size()))];
      const ute::Tick quarter = (frame.timeEnd - frame.timeStart) / 4;
      const ute::Tick t0w = frame.timeStart + quarter;
      const ute::Tick t1w = frame.timeEnd - quarter;
      const std::string svg =
          ute::renderSvg(ute::buildSlogWindowView(reader, t0w, t1w));
      const std::int64_t r1 = nowNs();
      out.renderMs.push_back(static_cast<double>(r1 - r0) * 1e-6);
      tracer.add("viz.window", root, r0, r1);
      out.contentHash = fnv1a(svg.data(), svg.size(), out.contentHash);
    }
    const std::int64_t r0 = nowNs();
    const std::string preview =
        ute::renderPreviewSvg(reader.preview(), reader.states());
    const std::int64_t r1 = nowNs();
    out.renderMs.push_back(static_cast<double>(r1 - r0) * 1e-6);
    tracer.add("viz.preview", root, r0, r1);
    out.contentHash = fnv1a(preview.data(), preview.size(), out.contentHash);
  }

  out.seconds = secondsSince(t0);
  tracer.addReserved(root, jobs == 1 ? "batch.chain.j1" : "batch.chain.jN",
                     0, t0, nowNs());
  if (countDetail) {
    out.ioAfter = readProcIo();
    out.allocs = gAllocCalls.load() - allocs0;
    gCountAllocs.store(false);
  }
  out.files = chain.intervalFiles;
  out.files.push_back(prefix + ".merged.uti");
  out.files.push_back(prefix + ".slog");
  out.files.push_back(prefix + ".utm");
  return out;
}

}  // namespace

Result runBatch(const Options& options, Tracer& tracer) {
  Result result;
  const int nproc =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  Tracer untraced;  // disabled: the iterations that measure end to end

  // --- set-up: the seeded simulation, several times ----------------------
  ute::TestProgramOptions program;
  program.nodes = 4;
  program.cpusPerNode = 4;
  program.iterations = ute::testProgramIterationsFor(kTargetRawEvents);
  program.seed = subSeed(options.seed, 1);
  std::vector<double> setupS;
  const auto setUp = [&](const std::string& dir) {
    const std::int64_t t0 = nowNs();
    RawRun run = simulate(ute::testProgram(program), dir + "/run", tracer);
    setupS.push_back(secondsSince(t0));
    return run;
  };
  const RawRun raw = setUp(options.outDir + "/raw");
  // A later set-up must cut the same raw files (the simulator is
  // deterministic for one seed).
  const auto setUpAgain = [&] {
    const RawRun again = setUp(options.outDir + "/raw_again");
    for (std::size_t i = 0; i < raw.rawFiles.size(); ++i) {
      if (i >= again.rawFiles.size() ||
          !sameFile(raw.rawFiles[i], again.rawFiles[i])) {
        result.mismatch("repeated simulation cut different raw files");
      }
    }
    ++result.attempted;
  };

  std::mt19937_64 rng(subSeed(options.seed, 2));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> windows;
  for (int i = 0; i < kWindows; ++i) windows.push_back(unit(rng));

  // --- timed iterations: j1 / jN alternate -------------------------------
  // In the traced run every other pair is traced, so traced and untraced
  // chains interleave under the same conditions (tracing overhead row).
  std::vector<ChainRun> j1, jN, j1Traced, jNTraced;
  ChainRun reference, counts;
  const std::int64_t start = nowNs();
  bool haveReference = false;
  const int minPairs = options.trace ? 3 : 2;
  for (int pair = 0; pair < minPairs || secondsSince(start) < options.seconds;
       ++pair) {
    const bool traced = options.trace && pair % 2 == 0 && pair > 0;
    Tracer& t = traced ? tracer : untraced;
    for (const int jobs : {1, nproc}) {
      // The first --jobs 1 chain counts allocations and I/O (exact for
      // one seed); it is checked but not timed.
      const bool counted = pair == 0 && jobs == 1;
      ChainRun run = runChain(raw, options.outDir + "/j" + std::to_string(jobs),
                              jobs, windows, t, counted);
      ++result.attempted;
      if (!haveReference) {
        // The first --jobs 1 chain is the reference every later chain
        // (either job count) must reproduce byte for byte.
        namespace fs = std::filesystem;
        fs::create_directories(options.outDir + "/ref");
        for (const std::string& f : run.files) {
          const std::string copy =
              options.outDir + "/ref/" + fs::path(f).filename().string();
          fs::copy_file(f, copy, fs::copy_options::overwrite_existing);
          reference.files.push_back(copy);
        }
        reference.contentHash = run.contentHash;
        reference.records = run.records;
        haveReference = true;
        counts = run;
      } else {
        if (run.contentHash != reference.contentHash ||
            run.records != reference.records) {
          result.mismatch("--jobs " + std::to_string(jobs) +
                          " stats/view content or record count differs");
        }
        for (std::size_t i = 0; i < run.files.size(); ++i) {
          if (i >= reference.files.size() ||
              !sameFile(run.files[i], reference.files[i])) {
            result.mismatch("--jobs " + std::to_string(jobs) + " " +
                            run.files[i] + " differs from --jobs 1");
          }
        }
      }
      // The first pair warms caches and the page cache; it is checked
      // but not measured.
      if (pair == 0) continue;
      auto& bucket = jobs == 1 ? (traced ? j1Traced : j1)
                               : (traced ? jNTraced : jN);
      bucket.push_back(std::move(run));
    }
    if (setupS.size() < kSetups &&
        secondsSince(start) >= static_cast<double>(setupS.size()) *
                                   options.seconds / kSetups) {
      setUpAgain();
    }
  }
  while (setupS.size() < kSetups) setUpAgain();

  const auto medianOf = [](const std::vector<ChainRun>& runs, auto field) {
    std::vector<double> v;
    for (const ChainRun& r : runs) v.push_back(field(r));
    return median(v);
  };
  // Records over time summed across the fastest eighth of the chains
  // of each job count (see fastestEighth); the renders of those chains.
  const auto faster = [](const std::vector<ChainRun>& runs) {
    std::vector<double> cost;
    for (const ChainRun& r : runs) cost.push_back(r.seconds);
    std::vector<ChainRun> out;
    for (const std::size_t i : fastestEighth(cost)) out.push_back(runs[i]);
    return out;
  };
  const auto throughput = [](const std::vector<ChainRun>& runs) {
    double records = 0, seconds = 0;
    for (const ChainRun& r : runs) {
      records += static_cast<double>(r.records);
      seconds += r.seconds;
    }
    return records / seconds;
  };
  const std::vector<ChainRun> j1Fast = faster(j1), jNFast = faster(jN);
  std::vector<double> renders;
  for (const auto* runs : {&j1Fast, &jNFast}) {
    for (const ChainRun& r : *runs) {
      renders.insert(renders.end(), r.renderMs.begin(), r.renderMs.end());
    }
  }
  const double tailP = tailPercentileFor(renders.size());
  const std::uint64_t slogBytes = fileSize(reference.files[reference.files.size() - 2]);
  const double slogPerRecord =
      static_cast<double>(slogBytes) /
      static_cast<double>(j1.front().recordsOut);

  result.endToEnd = {
      setupMetric(setupS, "simulation"),
      {"slog_bytes_per_record", slogPerRecord, "B/record", 0,
       "exact count"},
      {"allocs_per_op",
       static_cast<double>(counts.allocs) / static_cast<double>(counts.records),
       "count", 0, "heap allocations per interval record, --jobs 1 chain"},
  };
  // Wall-clock figures: printed on every run, per-layer metrics of the
  // traced run (they spread too widely on this host to be gated).
  result.report = {
      {"process.peak_rss_mb", peakRssMb(), "MB", 0, ""},
      {"batch.records_per_s", throughput(jNFast), "1/s", jNFast.size(),
       "interval records/s, fastest eighth of the chains at --jobs " +
           std::to_string(nproc)},
      {"batch.j1_records_per_s", throughput(j1Fast), "1/s", j1Fast.size(),
       "the same at --jobs 1"},
      {"viz.render_ms", percentile(renders, 50), "ms", renders.size(),
       "p50 window view build+render"},
      {"batch_render_p99_ms", percentile(renders, tailP), "ms", renders.size(),
       "window view build+render, p" + std::to_string(tailP).substr(0, 4)},
      {"raw_events", static_cast<double>(raw.rawEvents), "count", 0, ""},
      {"interval_records", static_cast<double>(reference.records), "count",
       0, ""},
  };

  if (options.trace) {
    const ChainRun& d = counts;
    const double rec = static_cast<double>(d.records);
    const double ev = static_cast<double>(raw.rawEvents);
    std::uint64_t utiBytes = 0;
    for (std::size_t i = 0; i + 3 < reference.files.size(); ++i) {
      utiBytes += fileSize(reference.files[i]);
    }
    std::vector<ChainRun> allJ1 = j1, allJN = jN;
    allJ1.insert(allJ1.end(), j1Traced.begin(), j1Traced.end());
    allJN.insert(allJN.end(), jNTraced.begin(), jNTraced.end());
    const auto convertS = [](const ChainRun& r) { return r.convertS; };
    const auto mergeS = [](const ChainRun& r) { return r.mergeS; };
    const auto seconds = [](const ChainRun& r) { return r.seconds; };
    std::vector<double> tracedRenders;
    for (const ChainRun& r : j1Traced) {
      tracedRenders.insert(tracedRenders.end(), r.renderMs.begin(),
                           r.renderMs.end());
    }
    const double untracedS = medianOf(jN, seconds);
    std::vector<double> allRenders;
    for (const auto* runs : {&j1, &jN}) {
      for (const ChainRun& r : *runs) {
        allRenders.insert(allRenders.end(), r.renderMs.begin(),
                          r.renderMs.end());
      }
    }
    const double allTailP = tailPercentileFor(allRenders.size());
    result.layers = {
        {"sim.ns_per_event",
         tracer.totalNs("sim.run") /
             static_cast<double>(tracer.totalCount("sim.run")),
         "ns/event", static_cast<std::uint64_t>(setupS.size())},
        {"convert.ns_per_event", medianOf(j1Traced, convertS) * 1e9 / ev,
         "ns/event", j1Traced.size()},
        {"convert.allocs_per_event",
         static_cast<double>(d.convertAllocs) / ev, "count"},
        {"convert.bytes_per_record",
         static_cast<double>(utiBytes) /
             static_cast<double>(d.intervalRecords),
         "B/record"},
        {"convert.speedup_jN",
         medianOf(allJ1, convertS) / medianOf(allJN, convertS), "x"},
        {"merge.speedup_jN", medianOf(allJ1, mergeS) / medianOf(allJN, mergeS),
         "x"},
        {"merge.self_ns_per_record",
         medianOf(j1Traced,
                  [](const ChainRun& r) {
                    return r.mergeS - r.sinkS - r.closeS;
                  }) *
             1e9 / rec,
         "ns/record", j1Traced.size()},
        {"merge.allocs_per_record", static_cast<double>(d.mergeAllocs) / rec,
         "count"},
        {"slog.encode_ns_per_record",
         medianOf(j1Traced,
                  [](const ChainRun& r) { return r.sinkS + r.closeS; }) *
             1e9 / rec,
         "ns/record", j1Traced.size()},
        {"slog.frames", static_cast<double>(d.frames), "count"},
        {"support.io_syscalls_per_record",
         static_cast<double>((d.ioAfter.syscr - d.ioBefore.syscr) +
                             (d.ioAfter.syscw - d.ioBefore.syscw)) /
             rec,
         "count"},
        {"support.io_bytes_per_record",
         static_cast<double>((d.ioAfter.rchar - d.ioBefore.rchar -
                              d.ioBefore.selfBytes) +
                             (d.ioAfter.wchar - d.ioBefore.wchar)) /
             rec,
         "B/record"},
        {"analysis.ns_per_record",
         medianOf(j1Traced, [](const ChainRun& r) { return r.analysisS; }) *
             1e9 / rec,
         "ns/record", j1Traced.size()},
        {"stats.ns_per_record",
         medianOf(j1Traced, [](const ChainRun& r) { return r.statsS; }) *
             1e9 / rec,
         "ns/record", j1Traced.size()},
        {"viz.render_p99_ms", percentile(allRenders, allTailP), "ms",
         allRenders.size(), "every untraced chain"},
        {"trace.overhead_pct",
         (medianOf(jNTraced, seconds) - untracedS) / untracedS * 100.0, "%",
         jNTraced.size(), "traced minus untraced --jobs N chain time"},
    };
    result.report.push_back({"trace_overhead_s",
                             medianOf(jNTraced, seconds) - untracedS, "s",
                             jNTraced.size(),
                             "traced minus untraced chain, --jobs N"});
  }
  return result;
}

}  // namespace uteperf
