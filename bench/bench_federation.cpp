// Federation front-door overhead (docs/FEDERATION.md): queries/sec and
// p99 latency for window queries through a uterouter, swept over the
// backend fleet size (1 -> 8) with the router's hot-set reply cache off
// and on, plus the AggregateMetrics fan-out latency per fleet size.
// Written to BENCH_federation.json, then microbenchmarks for the proxy
// round trip itself (cold relay vs. hot-set hit vs. direct backend).
//
// Caveat (recorded in the JSON too): this runs in a 1-CPU container, so
// the client, the router's connection threads, and every backend
// time-slice one core. Queries/s is a floor — the interesting signal is
// the *ratio* between cache off/on and the per-hop overhead, which are
// core-count independent.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fed/router_server.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "slog/slog_writer.h"
#include "trace/events.h"

namespace {

using namespace ute;

constexpr int kRecordsPerTrace = 600;
constexpr int kSweepQueries = 400;

// makeScratchDir wipes on reuse within one process — create it once.
const std::string& scratchDir() {
  static const std::string dir = makeScratchDir("bench_federation");
  return dir;
}

std::string scratchSlog(int index) {
  const std::string path =
      (std::filesystem::path(scratchDir()) /
       ("backend" + std::to_string(index) + ".slog"))
          .string();
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 64;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{2, "compute"}});
  for (int i = 0; i < kRecordsPerTrace; ++i) {
    const Tick start = static_cast<Tick>(i) * kMs;
    ByteWriter extra;
    extra.u64(start);
    ByteWriter body;
    encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                     start, kMs / 2, 0, (i + index) % 2, 0, extra.view());
    w.addRecord(RecordView::parse(body.view()));
  }
  w.close();
  return path;
}

/// One live fleet: N backends, each serving one trace, plus a router.
struct Fleet {
  std::vector<std::unique_ptr<TraceServer>> backends;
  std::unique_ptr<RouterService> service;
  std::unique_ptr<RouterServer> router;
  std::vector<std::uint32_t> globalIds;

  Fleet(const std::vector<std::string>& paths, int count, bool cache) {
    RouterOptions options;
    for (int i = 0; i < count; ++i) {
      backends.push_back(std::make_unique<TraceServer>(
          std::vector<std::string>{paths[static_cast<std::size_t>(i)]}));
      BackendSpec spec;
      spec.name = "b";
      spec.name += std::to_string(i);
      spec.host = "127.0.0.1";
      spec.port = backends.back()->port();
      options.backends.push_back(spec);
    }
    options.healthIntervalMs = 0;  // no background probes during timing
    options.cacheBytes = cache ? (32u << 20) : 0;
    service = std::make_unique<RouterService>(options);
    router = std::make_unique<RouterServer>(*service, 0);
    TraceClient client("127.0.0.1", router->port());
    for (const FedTraceEntry& e : client.listTraces()) {
      globalIds.push_back(e.globalId);
    }
  }

  ~Fleet() {
    if (router) router->stop();
    if (service) service->stop();
  }
};

/// Deterministic window mix round-robining across the fleet's traces.
WindowQuery windowFor(int i) {
  WindowQuery q;
  q.t0 = static_cast<Tick>((i * 37) % 400) * kMs;
  q.t1 = q.t0 + static_cast<Tick>(20 + (i * 11) % 80) * kMs;
  return q;
}

struct SweepPoint {
  int backends = 0;
  bool cache = false;
  double queriesPerSec = 0;
  double p99Us = 0;
  double hitRate = 0;
  double aggregateMs = 0;
};

SweepPoint measure(const std::vector<std::string>& paths, int count,
                   bool cache) {
  Fleet fleet(paths, count, cache);
  TraceClient client("127.0.0.1", fleet.router->port());

  // Prime: touch every trace once so connect/hello and backend frame
  // decodes are out of the timed loop.
  for (std::uint32_t id : fleet.globalIds) {
    client.window(id, windowFor(0));
  }

  std::vector<double> us;
  us.reserve(kSweepQueries);
  const auto total0 = benchutil::now();
  for (int i = 0; i < kSweepQueries; ++i) {
    const std::uint32_t id =
        fleet.globalIds[static_cast<std::size_t>(i) % fleet.globalIds.size()];
    const auto t0 = benchutil::now();
    benchmark::DoNotOptimize(client.window(id, windowFor(i % 8)));
    us.push_back(benchutil::secondsSince(t0) * 1e6);
  }
  const double totalSeconds = benchutil::secondsSince(total0);
  std::sort(us.begin(), us.end());

  SweepPoint point;
  point.backends = count;
  point.cache = cache;
  point.queriesPerSec = static_cast<double>(us.size()) / totalSeconds;
  point.p99Us = us[static_cast<std::size_t>(
      static_cast<double>(us.size() - 1) * 0.99)];
  const CacheStats stats = fleet.service->cacheStats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  point.hitRate =
      lookups > 0 ? 100.0 * static_cast<double>(stats.hits) / lookups : 0;

  const auto agg0 = benchutil::now();
  benchmark::DoNotOptimize(client.aggregateMetrics("", 60));
  point.aggregateMs = benchutil::secondsSince(agg0) * 1e3;
  return point;
}

void printArtifact() {
  std::vector<std::string> paths;
  for (int i = 0; i < 8; ++i) paths.push_back(scratchSlog(i));

  std::printf("=== Federation router: fleet size vs proxy throughput ===\n");
  std::printf("(%d window queries round-robin over the fleet; %d records "
              "per trace)\n",
              kSweepQueries, kRecordsPerTrace);
  std::printf("%9s %7s %10s %10s %7s %13s\n", "backends", "cache", "q/s",
              "p99", "hit%", "aggregate ms");
  std::vector<SweepPoint> points;
  for (const int count : {1, 2, 4, 8}) {
    for (const bool cache : {false, true}) {
      points.push_back(measure(paths, count, cache));
      const SweepPoint& p = points.back();
      std::printf("%9d %7s %10.0f %8.1fus %6.1f%% %12.2f\n", p.backends,
                  p.cache ? "on" : "off", p.queriesPerSec, p.p99Us,
                  p.hitRate, p.aggregateMs);
    }
  }
  std::printf("(1-CPU container: client, router, and backends time-slice "
              "one core — compare cache off/on ratios, not absolutes)\n");

  std::FILE* json = std::fopen("BENCH_federation.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_federation.json\n");
    return;
  }
  std::fprintf(json,
               "{\n  \"workload\": \"%d window queries round-robin over "
               "1..8 single-trace backends through uterouter\",\n"
               "  \"caveat\": \"1-CPU container: client, router connection "
               "threads, and every backend time-slice one core; "
               "queries/s is a floor and the cache off/on ratio is the "
               "portable signal\",\n  \"sweep\": [\n",
               kSweepQueries);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(json,
                 "    {\"backends\": %d, \"router_cache\": %s, "
                 "\"queries_per_second\": %.0f, \"p99_us\": %.1f, "
                 "\"cache_hit_rate\": %.1f, \"aggregate_ms\": %.2f}%s\n",
                 p.backends, p.cache ? "true" : "false", p.queriesPerSec,
                 p.p99Us, p.hitRate, p.aggregateMs,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_federation.json\n\n");
}

// --- microbenchmarks --------------------------------------------------------

std::vector<std::string>& benchPaths() {
  static std::vector<std::string> paths = {scratchSlog(100)};
  return paths;
}

void BM_DirectWindowRoundTrip(benchmark::State& state) {
  TraceServer server({benchPaths()[0]});
  TraceClient client("127.0.0.1", server.port());
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.window(0, windowFor(3)));
  }
  server.stop();
}
BENCHMARK(BM_DirectWindowRoundTrip)->Unit(benchmark::kMicrosecond);

void BM_RouterWindowRelay(benchmark::State& state) {
  Fleet fleet(benchPaths(), 1, /*cache=*/false);
  TraceClient client("127.0.0.1", fleet.router->port());
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.window(fleet.globalIds[0], windowFor(3)));
  }
}
BENCHMARK(BM_RouterWindowRelay)->Unit(benchmark::kMicrosecond);

void BM_RouterWindowHotSetHit(benchmark::State& state) {
  Fleet fleet(benchPaths(), 1, /*cache=*/true);
  TraceClient client("127.0.0.1", fleet.router->port());
  client.window(fleet.globalIds[0], windowFor(3));  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.window(fleet.globalIds[0], windowFor(3)));
  }
}
BENCHMARK(BM_RouterWindowHotSetHit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printArtifact();
  return ute::benchutil::runBenchmarks(argc, argv);
}
