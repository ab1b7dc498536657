// uteperf — the end-to-end benchmark of the trace pipeline and services.
//
//   uteperf --workload batch|query|live --seed N --seconds S --trace 0|1
//           [--out-dir DIR] [--commit ID]
//
// Builds its inputs from the seed, runs the workload for S seconds
// through the modules' public functions, checks every output, prints a
// human-readable report (every metric with unit and sample count, plus
// the provenance stamp) and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a run that records a span around every call into a layer
// (written to DIR/<workload>/<workload>.spans.json). The stamped full
// record goes to DIR/<workload>/result.json. Exits 1 on any mismatch.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "support/file_io.h"

#ifndef UTEPERF_BUILD_TYPE
#define UTEPERF_BUILD_TYPE "unknown"
#endif

namespace {

using namespace uteperf;

const char* kEndToEnd[] = {"setup_s", "slog_bytes_per_record", "allocs_per_op"};

int usage() {
  std::fprintf(stderr,
               "usage: uteperf --workload batch|query|live --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--commit ID]\n");
  return 2;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string jsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ",\n    ";
    out += "{\"name\": " + jsonString(m.name) +
           ", \"value\": " + jsonNumber(m.value) +
           ", \"unit\": " + jsonString(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) +
           ", \"note\": " + jsonString(m.note) + "}";
  }
  return out + "]";
}

void printMetric(const char* section, const Metric& m) {
  std::printf("%-10s %-36s %16.6g %-10s", section, m.name.c_str(), m.value,
              m.unit.c_str());
  if (m.samples > 0) {
    std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
  }
  if (!m.note.empty()) std::printf(" (%s)", m.note.c_str());
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  int traceFlag = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(value.c_str());
    else if (key == "--trace") traceFlag = std::atoi(value.c_str());
    else if (key == "--out-dir") options.outDir = value;
    else if (key == "--commit") commit = value;
    else return usage();
  }
  if ((argc - 1) % 2 != 0 || options.workload.empty() || traceFlag < 0 ||
      traceFlag > 1 || !(options.seconds > 0)) {
    return usage();
  }
  options.trace = traceFlag == 1;
  if (options.outDir.empty()) options.outDir = ".bench_out";
  options.outDir += "/" + options.workload;
  std::error_code ec;
  std::filesystem::remove_all(options.outDir, ec);
  std::filesystem::create_directories(options.outDir);

  Tracer tracer;
  tracer.setEnabled(options.trace);
  Result result;
  try {
    if (options.workload == "batch") result = runBatch(options, tracer);
    else if (options.workload == "query") result = runQuery(options, tracer);
    else if (options.workload == "live") result = runLive(options, tracer);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uteperf: %s workload failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (options.trace) {
    tracer.writeJson(options.outDir + "/" + options.workload + ".spans.json");
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string fsKind = filesystemKind(options.outDir);
  std::printf("== uteperf %s: seed %llu, %.0f s, trace %d ==\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("stamp      nproc=%u build=%s compiler=\"g++ %s\" commit=%s "
              "seed=%llu scratch_fs=%s\n",
              nproc, UTEPERF_BUILD_TYPE, __VERSION__, commit.c_str(),
              static_cast<unsigned long long>(options.seed), fsKind.c_str());
  for (const Metric& m : result.endToEnd) printMetric("end2end", m);
  for (const Metric& m : result.report) printMetric("report", m);
  for (const Metric& m : result.layers) printMetric("layer", m);
  for (const std::string& note : result.notes) {
    std::printf("note       %s\n", note.c_str());
  }
  std::printf("ops        attempted=%llu failed=%llu mismatches=%llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.mismatches));

  // The JSON line: end-to-end names untraced, per-layer names traced.
  std::string metrics;
  const auto emit = [&metrics](const std::string& name, double value,
                               const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + jsonNumber(value) +
               ", \"unit\": \"" + unit + "\"}";
  };
  bool complete = true;
  if (options.trace) {
    // A per-layer name may sit in the report lines too (the wall-clock
    // figures every run prints).
    std::vector<Metric> all = result.report;
    all.insert(all.end(), result.layers.begin(), result.layers.end());
    for (const auto& [name, unit] : perLayerMetrics()) {
      double value = 0;
      for (const Metric& m : all) {
        if (m.name != name) continue;
        if (m.unit != unit) {
          std::fprintf(stderr, "uteperf: %s reported in %s, not %s\n",
                       name.c_str(), m.unit.c_str(), unit.c_str());
          complete = false;
        }
        value = m.value;
      }
      emit(name, value, unit);
    }
  } else {
    for (const char* name : kEndToEnd) {
      const Metric* found = nullptr;
      for (const Metric& m : result.endToEnd) {
        if (m.name == name) found = &m;
      }
      if (found == nullptr || !(found->value > 0)) {
        std::fprintf(stderr, "uteperf: end-to-end metric %s missing\n", name);
        complete = false;
        continue;
      }
      emit(name, found->value, found->unit);
    }
  }
  const bool correct =
      result.mismatches == 0 && complete && result.attempted > 0;

  // The full record, stamped, beside the run's other outputs.
  ute::writeWholeFile(
      options.outDir + "/result.json",
      "{\"workload\": " + jsonString(options.workload) +
          ", \"seed\": " + std::to_string(options.seed) +
          ", \"seconds\": " + jsonNumber(options.seconds) +
          ", \"trace\": " + (options.trace ? "1" : "0") +
          ",\n \"stamp\": {\"nproc\": " + std::to_string(nproc) +
          ", \"build_type\": " + jsonString(UTEPERF_BUILD_TYPE) +
          ", \"compiler\": " + jsonString(std::string("g++ ") + __VERSION__) +
          ", \"commit\": " + jsonString(commit) +
          ", \"scratch_fs\": " + jsonString(fsKind) + "}" +
          ",\n \"correct\": " + (correct ? "true" : "false") +
          ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"mismatches\": " + std::to_string(result.mismatches) +
          ",\n \"end_to_end\": " + jsonMetrics(result.endToEnd) +
          ",\n \"report\": " + jsonMetrics(result.report) +
          ",\n \"per_layer\": " + jsonMetrics(result.layers) + "}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
