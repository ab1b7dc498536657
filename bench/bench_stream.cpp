// Live streaming ingest throughput (docs/STREAMING.md): records/s
// through the full loopback path — producer encode, TCP framing, session
// threads, byte budget, resumable merge, SLOG frame sealing — plus the
// frame-seal cadence a tailing viewer experiences, written to
// BENCH_stream.json. Then microbenchmarks for the wire encode/decode
// and the in-process StreamMerger on its own (no sockets).
//
// Caveat (recorded in the JSON too): this runs in a 1-CPU container, so
// producers, session threads, and the merge thread time-slice one core.
// Records/s here is a floor — on real hardware the sessions and the
// merge overlap instead of interleaving.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "clock/clock_model.h"
#include "interval/standard_profile.h"
#include "stream/ingest_client.h"
#include "stream/ingest_protocol.h"
#include "stream/ingest_server.h"
#include "stream/live_feed.h"
#include "stream/stream_merger.h"

namespace {

using namespace ute;

constexpr int kNodes = 3;
constexpr int kRecordsPerNode = 50000;

std::string scratch(const std::string& name) {
  return (std::filesystem::path(makeScratchDir("bench_stream")) / name)
      .string();
}

std::vector<ThreadEntry> nodeThreads(NodeId node) {
  return {{node, 1000 + node, 10000 + node, node, 0, ThreadType::kMpi}};
}

/// Drift-free Running records, 1 ms every 2 ms — the bench measures the
/// transport and merge machinery, not clock math.
std::vector<std::vector<std::uint8_t>> runningRecords(NodeId node, int n) {
  std::vector<std::vector<std::uint8_t>> bodies;
  bodies.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Tick t = static_cast<Tick>(i) * 2 * kMs;
    ByteWriter body;
    encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                     t, kMs, 0, node, 0);
    bodies.emplace_back(body.view().begin(), body.view().end());
  }
  return bodies;
}

void printArtifact() {
  const Profile profile = makeStandardProfile();
  std::vector<std::vector<std::vector<std::uint8_t>>> perNode;
  std::size_t totalBytes = 0;
  for (int node = 0; node < kNodes; ++node) {
    perNode.push_back(runningRecords(static_cast<NodeId>(node),
                                     kRecordsPerNode));
    for (const auto& body : perNode.back()) totalBytes += body.size();
  }

  LiveFeed feed;
  IngestServerOptions options;
  for (int node = 0; node < kNodes; ++node) {
    options.expectedNodes.push_back(static_cast<NodeId>(node));
  }
  options.outPath = scratch("bench.uti");
  options.slogPath = scratch("bench.slog");
  IngestServer ingest(profile, options, &feed);

  // Poll the live feed while the run streams: each newly sealed frame is
  // stamped, giving the seal cadence a tailing viewer would see.
  std::vector<double> sealSeconds;
  std::thread sealWatcher;
  const auto t0 = benchutil::now();
  sealWatcher = std::thread([&] {
    std::uint64_t seen = 0;
    while (!feed.finished()) {
      const std::uint64_t count = feed.frameCount();
      const double at = benchutil::secondsSince(t0);
      for (; seen < count; ++seen) sealSeconds.push_back(at);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    const std::uint64_t count = feed.frameCount();
    const double at = benchutil::secondsSince(t0);
    for (; seen < count; ++seen) sealSeconds.push_back(at);
  });

  std::vector<std::thread> senders;
  double lastByeSeconds = 0;
  for (int node = 0; node < kNodes; ++node) {
    senders.emplace_back([&, node] {
      IngestClient client("127.0.0.1", ingest.port(),
                          static_cast<NodeId>(node));
      client.sendThreads(nodeThreads(static_cast<NodeId>(node)));
      client.sendClockPairs({}, /*final=*/true);
      for (const auto& body : perNode[static_cast<std::size_t>(node)]) {
        client.queueRecord(body);
      }
      client.bye();
    });
  }
  for (auto& t : senders) t.join();
  lastByeSeconds = benchutil::secondsSince(t0);
  const StreamMergeResult result = ingest.wait();
  const double totalSeconds = benchutil::secondsSince(t0);
  sealWatcher.join();

  const double recordsPerSec =
      static_cast<double>(result.recordsOut) / totalSeconds;
  double meanGapMs = 0;
  double maxGapMs = 0;
  for (std::size_t i = 1; i < sealSeconds.size(); ++i) {
    const double gap = (sealSeconds[i] - sealSeconds[i - 1]) * 1e3;
    meanGapMs += gap;
    maxGapMs = std::max(maxGapMs, gap);
  }
  if (sealSeconds.size() > 1) {
    meanGapMs /= static_cast<double>(sealSeconds.size() - 1);
  }
  const double finalSealMs =
      sealSeconds.empty() ? 0 : (totalSeconds - lastByeSeconds) * 1e3;

  std::printf("=== Streaming ingest: %d nodes x %d records, loopback ===\n",
              kNodes, kRecordsPerNode);
  std::printf("%llu records merged in %.3fs: %.0f records/s (%.1f MB/s "
              "wire payload)\n",
              static_cast<unsigned long long>(result.recordsOut),
              totalSeconds, recordsPerSec,
              static_cast<double>(totalBytes) / totalSeconds / 1e6);
  std::printf("%zu SLOG frames sealed; inter-seal gap mean %.2fms max "
              "%.2fms; last bye -> drained %.2fms\n",
              sealSeconds.size(), meanGapMs, maxGapMs, finalSealMs);
  std::printf("(1-CPU container: producers, sessions, and the merge share "
              "one core — treat records/s as a floor)\n");

  std::FILE* json = std::fopen("BENCH_stream.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_stream.json\n");
    return;
  }
  std::fprintf(json,
               "{\n  \"workload\": \"%d synthetic nodes x %d records over "
               "loopback TCP\",\n"
               "  \"caveat\": \"1-CPU container: producers, session threads, "
               "and the merge thread time-slice one core; records/s is a "
               "floor for multi-core deployments\",\n",
               kNodes, kRecordsPerNode);
  std::fprintf(json,
               "  \"ingest\": {\"records\": %llu, \"payload_bytes\": %zu, "
               "\"seconds\": %.6f, \"records_per_second\": %.0f},\n",
               static_cast<unsigned long long>(result.recordsOut),
               totalBytes, totalSeconds, recordsPerSec);
  std::fprintf(json,
               "  \"frame_seal\": {\"frames\": %zu, \"mean_gap_ms\": %.3f, "
               "\"max_gap_ms\": %.3f, \"final_drain_ms\": %.3f}\n}\n",
               sealSeconds.size(), meanGapMs, maxGapMs, finalSealMs);
  std::fclose(json);
  std::printf("wrote BENCH_stream.json\n\n");
}

void BM_EncodeRecordsMessage(benchmark::State& state) {
  const auto bodies = runningRecords(0, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encodeIngestRecords(bodies));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeRecordsMessage)->Arg(64)->Arg(1024);

void BM_DecodeRecordsMessage(benchmark::State& state) {
  const auto bodies = runningRecords(0, static_cast<int>(state.range(0)));
  const ByteWriter message = encodeIngestRecords(bodies);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decodeIngestRecords(message.view()));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeRecordsMessage)->Arg(64)->Arg(1024);

/// The resumable merge alone — no sockets, one drift-free input — to
/// separate merge cost from transport cost.
void BM_StreamMergerDrain(benchmark::State& state) {
  const Profile profile = makeStandardProfile();
  const auto bodies = runningRecords(0, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    StreamMerger merger(profile);
    const std::size_t i = merger.addInput();
    merger.setThreads(i, nodeThreads(0));
    merger.setClockPairs(i, {}, /*final=*/true);
    merger.openOutput(scratch("drain.uti"));
    for (const auto& body : bodies) merger.addRecord(i, body);
    merger.advance();
    merger.closeInput(i);
    benchmark::DoNotOptimize(merger.finish());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamMergerDrain)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  return ute::benchutil::runBenchmarks(argc, argv);
}
