// Metrics-engine throughput: records/s of the streaming computeMetrics()
// pass, swept over the bin count {240, 1000, 10000} and the worker count
// {1, hardware}. Also reports the encoded .utm size per point (the store
// grows linearly with bins x tasks, independent of trace size) and
// checks that every parallel run is byte-identical to the sequential
// reference. Writes the sweep to BENCH_metrics.json, then runs
// microbenchmarks of the scan and the encode/decode round trip.
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "analysis/metrics.h"
#include "bench_util.h"
#include "slog/slog_reader.h"
#include "support/parallel_for.h"
#include "support/text.h"
#include "workloads/workloads.h"

namespace {

using namespace ute;

std::string gSlog;    // columnar v2 (the default encoding)
std::string gSlogV1;  // the same trace written row-major v1
std::uint64_t gRecords = 0;

struct SweepPoint {
  std::uint32_t bins = 0;
  int jobs = 0;
  double seconds = 0;
  std::size_t utmBytes = 0;
  bool identical = true;
};

void printSweep() {
  TestProgramOptions workload;
  workload.iterations = 1200;
  workload.nodes = 4;
  PipelineOptions options;
  options.dir = makeScratchDir("bench_metrics");
  options.name = "metrics";
  options.slog.recordsPerFrame = 256;  // plenty of frames to scan
  const PipelineResult run = runPipeline(testProgram(workload), options);
  gSlog = run.slogFile;
  gRecords = run.merge.recordsOut;

  PipelineOptions v1Options = options;
  v1Options.name = "metrics_v1";
  v1Options.slog.formatVersion = 1;
  gSlogV1 = runPipeline(testProgram(workload), v1Options).slogFile;

  // Encoding sweep: the metrics scan over the same trace stored row v1
  // vs columnar v2 — the .utm bytes must be identical either way (the
  // encoding may change speed, never results).
  std::printf("=== Metrics engine: encoding sweep (240 bins, 1 job) ===\n");
  std::printf("%12s %10s %14s %10s\n", "encoding", "seconds", "records/s",
              "identical");
  struct EncodingPoint {
    const char* encoding;
    double seconds = 0;
    bool identical = true;
  };
  std::vector<EncodingPoint> encodingPoints;
  std::vector<std::uint8_t> utmReference;
  for (const auto& [name, path] :
       {std::pair<const char*, const std::string*>{"row-v1", &gSlogV1},
        {"columnar-v2", &gSlog}}) {
    SlogReader encReader(*path);
    MetricsOptions metricsOptions;
    metricsOptions.bins = 240;
    computeMetrics(encReader, metricsOptions);  // warm the page cache
    EncodingPoint p;
    p.encoding = name;
    p.seconds = 1e9;
    std::vector<std::uint8_t> utm;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = benchutil::now();
      const MetricsStore store = computeMetrics(encReader, metricsOptions);
      p.seconds = std::min(p.seconds, benchutil::secondsSince(t0));
      utm = store.encode();
    }
    if (utmReference.empty()) {
      utmReference = utm;
    } else {
      p.identical = utm == utmReference;
    }
    std::printf("%12s %10.4f %14s %10s\n", p.encoding, p.seconds,
                withCommas(p.seconds == 0
                               ? 0
                               : static_cast<std::uint64_t>(
                                     static_cast<double>(gRecords) /
                                     p.seconds))
                    .c_str(),
                p.identical ? "yes" : "NO");
    encodingPoints.push_back(p);
  }
  std::printf("\n");

  // At least 4 workers even on small machines, so the parallel path and
  // its byte-identity check always run.
  const int hw = std::max(4, static_cast<int>(effectiveJobs(0)));
  SlogReader reader(gSlog);

  std::printf("=== Metrics engine: bins x jobs sweep ===\n");
  std::printf("(%s merged records, %zu frames)\n",
              withCommas(gRecords).c_str(), reader.frameIndex().size());
  std::printf("%8s %6s %10s %14s %10s %10s\n", "bins", "jobs", "seconds",
              "records/s", ".utm size", "identical");

  std::vector<SweepPoint> points;
  for (const std::uint32_t bins : {240u, 1000u, 10000u}) {
    std::vector<std::uint8_t> reference;
    for (const int jobs : {1, hw}) {
      MetricsOptions metricsOptions;
      metricsOptions.bins = bins;
      metricsOptions.jobs = jobs;
      const auto t0 = benchutil::now();
      const MetricsStore store = computeMetrics(reader, metricsOptions);
      SweepPoint p;
      p.bins = bins;
      p.jobs = jobs;
      p.seconds = benchutil::secondsSince(t0);
      const std::vector<std::uint8_t> utm = store.encode();
      p.utmBytes = utm.size();
      if (jobs == 1) {
        reference = utm;
      } else {
        p.identical = utm == reference;
      }
      std::printf("%8u %6d %10.4f %14s %9.1fK %10s\n", p.bins, p.jobs,
                  p.seconds,
                  withCommas(p.seconds == 0
                                 ? 0
                                 : static_cast<std::uint64_t>(
                                       static_cast<double>(gRecords) /
                                       p.seconds))
                      .c_str(),
                  static_cast<double>(p.utmBytes) / 1024,
                  p.identical ? "yes" : "NO");
      points.push_back(p);
    }
  }
  std::printf("\n");

  std::FILE* json = std::fopen("BENCH_metrics.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_metrics.json\n");
    return;
  }
  std::fprintf(json,
               "{\n  \"workload\": \"test program, 4 nodes\",\n"
               "  \"caveat\": \"1-CPU container: records/s figures are "
               "single-core\",\n"
               "  \"records\": %llu,\n  \"encoding_points\": [\n",
               static_cast<unsigned long long>(gRecords));
  for (std::size_t i = 0; i < encodingPoints.size(); ++i) {
    const EncodingPoint& p = encodingPoints[i];
    std::fprintf(json,
                 "    {\"encoding\": \"%s\", \"bins\": 240, \"jobs\": 1, "
                 "\"seconds\": %.6f, \"records_per_second\": %.1f, "
                 "\"utm_identical_across_encodings\": %s}%s\n",
                 p.encoding, p.seconds,
                 p.seconds == 0 ? 0.0
                                : static_cast<double>(gRecords) / p.seconds,
                 p.identical ? "true" : "false",
                 i + 1 < encodingPoints.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(
        json,
        "    {\"bins\": %u, \"jobs\": %d, \"seconds\": %.6f, "
        "\"records_per_second\": %.1f, \"utm_bytes\": %zu, "
        "\"identical_to_jobs1\": %s}%s\n",
        p.bins, p.jobs, p.seconds,
        p.seconds == 0 ? 0.0 : static_cast<double>(gRecords) / p.seconds,
        p.utmBytes, p.identical ? "true" : "false",
        i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_metrics.json\n\n");
}

void BM_ComputeMetrics(benchmark::State& state) {
  SlogReader reader(gSlog);
  MetricsOptions options;
  options.bins = 240;
  options.jobs = static_cast<int>(state.range(0));
  std::uint64_t records = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(computeMetrics(reader, options));
    records += gRecords;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ComputeMetrics)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_EncodeDecodeUtm(benchmark::State& state) {
  SlogReader reader(gSlog);
  MetricsOptions options;
  options.bins = static_cast<std::uint32_t>(state.range(0));
  const MetricsStore store = computeMetrics(reader, options);
  for (auto _ : state) {
    const std::vector<std::uint8_t> bytes = store.encode();
    benchmark::DoNotOptimize(MetricsStore::decode(bytes));
  }
}
BENCHMARK(BM_EncodeDecodeUtm)->Arg(240)->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printSweep();
  return ute::benchutil::runBenchmarks(argc, argv);
}
