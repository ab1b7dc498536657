// Section 2.1: "the average cost of cutting a trace record is fairly
// small (a small fraction of one micro second)" for the enablement test
// plus the trace-buffer insertion of a typical record (one hookword, one
// timestamp word, three data words).
//
// Prints the measured per-record cost, then benchmarks the three parts
// the paper identifies: (1) the enable test alone (a suppressed event),
// (2) enable test + buffer insertion, (3) the wrapper payload encoding,
// built into one reused writer as the simulator's MPI wrappers do.
//
// The program checks itself: it reads back every record it timed, plus
// a mixed run of records whose payloads are rebuilt in one writer and
// whose timestamps cross a 32-bit wrap, and exits 1 if any record's
// type, flags, timestamp, context or payload differs from what was cut.
// `--benchmark_filter='^$'` runs the checks alone.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <ranges>

#include "bench_util.h"
#include "trace/reader.h"
#include "trace/writer.h"

namespace {

using namespace ute;

std::string tracePrefix() {
  return (std::filesystem::temp_directory_path() / "bench_trace_cost")
      .string();
}

/// One record as cut; `payload` is built into the caller's writer.
struct Expected {
  EventType type;
  std::uint8_t flags;
  CpuId cpu;
  LogicalThreadId ltid;
  Tick localTs;
};

/// Reads `path` back (after the session's NodeInfo record) and exits 1
/// unless it holds exactly `count` records equal to what `expect(i, w)`
/// describes, with `w` holding record i's payload.
void verifyOrExit(const std::string& path, std::size_t count,
                  const std::function<Expected(std::size_t, ByteWriter&)>&
                      expect) {
  TraceFileReader reader(path);
  if (const auto info = reader.next();
      !info || info->type != EventType::kNodeInfo) {
    std::fprintf(stderr, "%s: no NodeInfo record\n", path.c_str());
    std::exit(1);
  }
  ByteWriter payload;
  for (std::size_t i = 0; i < count; ++i) {
    const Expected want = expect(i, payload);
    const auto got = reader.next();
    if (!got || got->type != want.type || got->flags != want.flags ||
        got->cpu != want.cpu || got->ltid != want.ltid ||
        got->localTs != want.localTs ||
        !std::ranges::equal(got->payload, payload.view())) {
      std::fprintf(stderr, "%s: record %zu differs from the record cut\n",
                   path.c_str(), i);
      std::exit(1);
    }
  }
  if (reader.next()) {
    std::fprintf(stderr, "%s: more records than were cut\n", path.c_str());
    std::exit(1);
  }
}

void printRecordCost() {
  TraceOptions options;
  options.filePrefix = tracePrefix();
  options.bufferSizeBytes = 8 << 20;
  constexpr int kRecords = 2'000'000;
  double perRecordUs = 0;
  {
    TraceSession session(options, 0, 1);
    ByteWriter payload;
    payloadThreadDispatch(payload, 1, 2);  // 3 words
    const auto t0 = benchutil::now();
    for (int i = 0; i < kRecords; ++i) {
      session.cut(EventType::kThreadDispatch, 0, 0, 1,
                  static_cast<Tick>(i) * 50, payload.view());
    }
    perRecordUs = benchutil::secondsSince(t0) / kRecords * 1e6;
  }
  verifyOrExit(TraceSession::traceFilePath(options.filePrefix, 0), kRecords,
               [](std::size_t i, ByteWriter& w) {
                 payloadThreadDispatch(w, 1, 2);
                 return Expected{EventType::kThreadDispatch, 0, 0, 1,
                                 static_cast<Tick>(i) * 50};
               });
  std::printf("=== Section 2.1: cost of cutting a trace record ===\n");
  std::printf("typical record (hookword + timestamp + 3 data words): "
              "%.4f us/record\n", perRecordUs);
  std::printf("the paper's claim: \"a small fraction of one micro second\" "
              "-> %s\n", perRecordUs < 1.0 ? "reproduced" : "NOT met");
}

/// Record `i` of the mixed check run: dispatch, MPI send and user-marker
/// records with per-record fields, stepping 3 ms so the run crosses the
/// 2^32 ns timestamp wrap.
Expected mixedRecord(std::size_t i, ByteWriter& w) {
  const auto n = static_cast<std::int32_t>(i);
  const Tick ts = static_cast<Tick>(i) * 3'000'000;
  const auto cpu = static_cast<CpuId>(i % 4);
  const auto ltid = static_cast<LogicalThreadId>(i % 7);
  switch (i % 3) {
    case 0:
      payloadThreadDispatch(w, n % 5 - 1, n % 7, n % 11 == 0);
      return {EventType::kThreadDispatch, 0, cpu, ltid, ts};
    case 1:
      payloadMpiSend(w, n % 16, n % 100, 64u * static_cast<std::uint32_t>(n),
                     static_cast<std::uint32_t>(n), 0);
      return {EventType::kMpiSend, kFlagBegin, cpu, ltid, ts};
    default:
      payloadUserMarker(w, static_cast<std::uint32_t>(n % 9),
                        0x1000u + 16u * static_cast<std::uint64_t>(i));
      return {EventType::kUserMarker, kFlagEnd, cpu, ltid, ts};
  }
}

void checkMixedRecords() {
  constexpr std::size_t kRecords = 3000;
  TraceOptions options;
  options.filePrefix = tracePrefix() + "_check";
  {
    TraceSession session(options, 0, 4);
    ByteWriter payload;
    for (std::size_t i = 0; i < kRecords; ++i) {
      const Expected r = mixedRecord(i, payload);
      session.cut(r.type, r.flags, r.cpu, r.ltid, r.localTs, payload);
    }
  }
  verifyOrExit(TraceSession::traceFilePath(options.filePrefix, 0), kRecords,
               mixedRecord);
  std::printf("read back: every cut record matches (%zu mixed records "
              "across a timestamp wrap)\n\n", kRecords);
}

void BM_EnableTestOnly(benchmark::State& state) {
  TraceOptions options;
  options.filePrefix = tracePrefix() + "_sup";
  options.enabledClasses = 0;  // everything but control suppressed
  TraceSession session(options, 0, 1);
  ByteWriter payload;
  payloadThreadDispatch(payload, 1, 2);
  Tick t = 0;
  for (auto _ : state) {
    session.cut(EventType::kThreadDispatch, 0, 0, 1, t += 50,
                payload.view());
  }
}
BENCHMARK(BM_EnableTestOnly);

void BM_CutDispatchRecord(benchmark::State& state) {
  TraceOptions options;
  options.filePrefix = tracePrefix() + "_cut";
  options.bufferSizeBytes = 8 << 20;
  TraceSession session(options, 0, 1);
  ByteWriter payload;
  payloadThreadDispatch(payload, 1, 2);
  Tick t = 0;
  for (auto _ : state) {
    session.cut(EventType::kThreadDispatch, 0, 0, 1, t += 50,
                payload.view());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CutDispatchRecord);

void BM_CutMpiSendRecord(benchmark::State& state) {
  // Includes the wrapper's payload encoding (part three of the cost),
  // into one writer reused across records as the MPI runtime does.
  TraceOptions options;
  options.filePrefix = tracePrefix() + "_send";
  options.bufferSizeBytes = 8 << 20;
  TraceSession session(options, 0, 1);
  ByteWriter payload;
  Tick t = 0;
  for (auto _ : state) {
    session.cut(EventType::kMpiSend, kFlagBegin, 0, 1, t += 50,
                payloadMpiSend(payload, 3, 17, 4096, 42, 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CutMpiSendRecord);

}  // namespace

int main(int argc, char** argv) {
  printRecordCost();
  checkMixedRecords();
  return ute::benchutil::runBenchmarks(argc, argv);
}
