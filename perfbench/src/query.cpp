// Workload `query`: an in-process TraceServer over two SLOGs built in
// set-up from different seeded shapes (a many-frame test-program run
// and a FLASH-like run), with a frame-cache budget below their decoded
// size. TraceClient connections drive an open loop at fixed offered
// rates; the mix is mostly window / frame-at / summary pan-zoom over a
// hot region, a seeded tail of cold windows across both runs, and a few
// metrics requests. Latency counts from when a request was due. A seeded
// sample of wire replies must byte-match processRequest() on an
// in-process TraceService over the same files.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <tuple>

#include "common.h"
#include "inputs.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "slog/slog_reader.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace uteperf {

namespace {

constexpr std::size_t kRequests = 4096;
/// Cycles of the timed phase (each runs one ladder rate, in turn); one
/// set-up before them, the others spread evenly between them.
constexpr int kCycles = 12;
constexpr std::size_t kSetups = 12;
/// Offered rates (requests/s) of the open loop; kReferenceRate is the
/// one whose latency is reported end to end.
constexpr int kLadder = 4;
constexpr double kRates[kLadder] = {1000, 2000, 4000, 8000};
constexpr double kReferenceRate = 1000;
/// The interactive limit a rate's tail latency must meet. Like the mix
/// shares below, an assumption of this benchmark: neither the paper nor
/// the repository states one.
constexpr double kLimitMs = 50;

/// Share of requests whose wire reply is byte-checked.
constexpr std::uint64_t kSampleEvery = 37;

struct Request {
  ute::Opcode op = ute::Opcode::kWindow;
  std::uint32_t trace = 0;
  ute::Tick t0 = 0, t1 = 0;
  std::uint32_t bins = 0;
  std::vector<std::uint8_t> payload;
};

struct Sample {
  double latencyMs = 0;  ///< from due time; +inf for a failed request
  double lateMs = 0;     ///< how late the generator sent it
};

struct LoadResult {
  std::vector<Sample> samples;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> sampled;
};

struct Fixture {
  std::vector<std::string> slogs;
  std::uint64_t slogRecords = 0;
  std::uint64_t slogBytes = 0;
  std::size_t decodedBytes = 0;
  std::vector<Request> requests;
};

std::vector<Request> makeRequests(const std::vector<std::string>& slogs,
                                  std::uint64_t seed) {
  std::vector<std::unique_ptr<ute::SlogReader>> readers;
  for (const std::string& s : slogs) {
    readers.push_back(std::make_unique<ute::SlogReader>(s));
  }
  std::mt19937_64 rng(seed);
  // The work per request must not depend on the seed, so windows are
  // placed by SLOG frame, not by time: a window spans a fixed number of
  // whole frames (a ladder), entered a quarter into its first frame and
  // left a quarter before the end of its last. The hot region is a fixed
  // run of trace 0's frames (4%, from 45% in), because the content of a
  // frame depends on the program phase it falls in. The mix has exact
  // shares. The seed picks the frames and orders the mix.
  const auto frames = [&](std::uint32_t t) {
    return readers[t]->frameIndex().size();
  };
  const auto pick = [&](std::size_t lo, std::size_t hi) {  // [lo, hi]
    return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
  };
  const auto span = [&](std::uint32_t t, std::size_t first,
                        std::size_t count) {
    const auto& index = readers[t]->frameIndex();
    const auto& a = index[first];
    const auto& b = index[first + count - 1];
    return std::pair<ute::Tick, ute::Tick>(
        a.timeStart + (a.timeEnd - a.timeStart) / 4,
        b.timeEnd - (b.timeEnd - b.timeStart) / 4);
  };
  // A ladder of 8 widths from 1 to `most` frames.
  const auto ladder = [](std::size_t i, std::size_t most) {
    return 1 + (i % 8) * (std::max<std::size_t>(1, most) - 1) / 7;
  };
  const std::size_t hotFrames = std::max<std::size_t>(8, frames(0) * 4 / 100);
  const std::size_t hotFirst =
      std::min(frames(0) * 45 / 100, frames(0) - hotFrames);
  enum Kind { kHotWindow, kHotFrameAt, kHotSummary, kColdWindow, kMetrics };
  std::vector<Kind> kinds;
  const std::pair<Kind, double> shares[] = {{kHotWindow, 0.45},
                                            {kHotFrameAt, 0.15},
                                            {kHotSummary, 0.15},
                                            {kColdWindow, 0.20},
                                            {kMetrics, 0.05}};
  for (const auto& [kind, share] : shares) {
    kinds.insert(kinds.end(),
                 static_cast<std::size_t>(share * kRequests + 0.5), kind);
  }
  kinds.resize(kRequests, kHotWindow);
  std::shuffle(kinds.begin(), kinds.end(), rng);
  std::vector<Request> out;
  std::size_t seen[5] = {};  // requests of each kind so far
  for (std::size_t i = 0; i < kRequests; ++i) {
    Request r;
    const std::size_t k = seen[kinds[i]]++;
    if (kinds[i] == kColdWindow) {  // anywhere in either run
      r.trace = static_cast<std::uint32_t>(k % 2);
      const std::size_t count = ladder(k / 2, frames(r.trace) * 2 / 100);
      std::tie(r.t0, r.t1) =
          span(r.trace, pick(0, frames(r.trace) - count), count);
      r.op = ute::Opcode::kWindow;
    } else if (kinds[i] == kMetrics) {
      r.trace = static_cast<std::uint32_t>(k % 2);
      r.op = ute::Opcode::kGetMetrics;
      const std::uint32_t bins[] = {60, 120, 240};
      r.bins = bins[(k / 2) % 3];
    } else {  // pan-zoom over the hot region
      const std::size_t count = ladder(k, hotFrames / 2);
      std::tie(r.t0, r.t1) =
          span(0, hotFirst + pick(0, hotFrames - count), count);
      r.op = kinds[i] == kHotWindow    ? ute::Opcode::kWindow
             : kinds[i] == kHotFrameAt ? ute::Opcode::kFrameAt
                                       : ute::Opcode::kSummary;
    }
    ute::WindowQuery wq;
    wq.t0 = r.t0;
    wq.t1 = r.t1;
    ute::ByteWriter w;
    switch (r.op) {
      case ute::Opcode::kWindow: w = ute::encodeWindowRequest(r.trace, wq); break;
      case ute::Opcode::kFrameAt: w = ute::encodeFrameAtRequest(r.trace, r.t0); break;
      case ute::Opcode::kSummary:
        w = ute::encodeSummaryRequest(r.trace, r.t0, r.t1);
        break;
      default: w = ute::encodeMetricsRequest(r.trace, r.bins); break;
    }
    r.payload.assign(w.view().begin(), w.view().end());
    out.push_back(std::move(r));
  }
  return out;
}

/// One served SLOG, built by the library pipeline (simulate -> convert
/// -> merge with the SlogWriter sink).
ute::PipelineResult buildSlog(ute::SimulationConfig config,
                              const std::string& dir, const std::string& name,
                              const ute::SlogOptions& slog, Tracer& tracer) {
  ute::PipelineOptions po;
  po.dir = dir;
  po.name = name;
  po.slog = slog;
  const std::int64_t t0 = nowNs();
  ute::PipelineResult r = ute::runPipeline(std::move(config), po);
  // runPipeline simulates first; its span is the simulation's share.
  tracer.add("sim.run", 0, t0,
             t0 + static_cast<std::int64_t>(r.simSeconds * 1e9), r.rawEvents);
  return r;
}

Fixture buildFixture(const Options& options, int round, Tracer& tracer) {
  Fixture f;
  const std::string dir = setupDir(options, round);
  ute::TestProgramOptions program;
  program.iterations = ute::testProgramIterationsFor(250'000);
  program.seed = subSeed(options.seed, 3);
  ute::SlogOptions manyFrames, flashFrames;
  manyFrames.recordsPerFrame = 512;
  flashFrames.recordsPerFrame = 64;  // the FLASH-like run is small
  ute::FlashOptions flashOptions;
  flashOptions.seed = subSeed(options.seed, 4);
  const ute::PipelineResult runs[] = {
      buildSlog(ute::testProgram(program), dir, "test", manyFrames, tracer),
      buildSlog(ute::flash(flashOptions), dir, "flash", flashFrames, tracer)};
  for (const ute::PipelineResult& r : runs) {
    f.slogs.push_back(r.slogFile);
    f.slogRecords += r.merge.recordsOut;
    f.slogBytes += fileSize(r.slogFile);
  }
  for (const std::string& path : f.slogs) {
    ute::SlogReader reader(path);
    for (std::size_t i = 0; i < reader.frameIndex().size(); ++i) {
      f.decodedBytes += ute::FrameCache::frameBytes(*reader.readFrame(i));
    }
  }
  f.requests = makeRequests(f.slogs, subSeed(options.seed, 5));
  return f;
}

ute::ServerOptions serverOptions(const Fixture& f, std::size_t workers) {
  ute::ServerOptions o;
  // Below the decoded size of both runs, so cold windows evict.
  o.service.cacheBytes = f.decodedBytes * 3 / 10;
  o.service.cacheShards = 8;
  o.service.workers = workers;
  o.service.queueDepth = 64;
  return o;
}

bool replyOk(const std::vector<std::uint8_t>& reply) {
  return !reply.empty() && reply[0] == 0;
}

/// Open loop: `clients` connections share one schedule at `rate`
/// requests/s for `seconds`; request k is due at start + k / rate.
LoadResult openLoop(std::uint16_t port, const Fixture& f, double rate,
                    double seconds, int clients, std::size_t offset,
                    Tracer& tracer) {
  LoadResult out;
  std::vector<std::unique_ptr<ute::TraceClient>> conns;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<ute::TraceClient>("127.0.0.1", port));
  }
  const std::int64_t start = nowNs() + 2'000'000;
  const auto total = static_cast<std::size_t>(rate * seconds);
  std::vector<LoadResult> per(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& mine = per[static_cast<std::size_t>(c)];
      for (std::size_t k = static_cast<std::size_t>(c); k < total;
           k += static_cast<std::size_t>(clients)) {
        const std::int64_t due =
            start + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / rate);
        sleepUntilNs(due);
        const std::int64_t sent = nowNs();
        const std::size_t idx = (offset + k) % f.requests.size();
        bool ok = false;
        std::vector<std::uint8_t> reply;
        try {
          reply = conns[static_cast<std::size_t>(c)]->roundTrip(
              f.requests[idx].payload);
          ok = replyOk(reply);
        } catch (const std::exception&) {
          ok = false;
        }
        const std::int64_t done = nowNs();
        tracer.add("query.request", 0, sent, done);
        Sample s;
        s.latencyMs = ok ? static_cast<double>(done - due) * 1e-6 : INFINITY;
        s.lateMs = static_cast<double>(sent - due) * 1e-6;
        mine.samples.push_back(s);
        if (!ok) ++mine.failed;
        if (ok && (offset + k) % kSampleEvery == 0) {
          mine.sampled.emplace_back(idx, std::move(reply));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (LoadResult& p : per) {
    out.samples.insert(out.samples.end(), p.samples.begin(), p.samples.end());
    out.failed += p.failed;
    for (auto& s : p.sampled) out.sampled.push_back(std::move(s));
  }
  return out;
}

/// Closed loop: every connection sends its next request as soon as the
/// previous reply arrived. Returns (requests completed, seconds).
std::pair<double, double> closedLoop(std::uint16_t port, const Fixture& f,
                                     double seconds, int clients,
                                     Result& result) {
  std::atomic<std::uint64_t> done{0}, bad{0};
  const std::int64_t end = nowNs() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  const std::int64_t t0 = nowNs();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ute::TraceClient conn("127.0.0.1", port);
      for (std::size_t k = static_cast<std::size_t>(c) * 997; nowNs() < end;
           ++k) {
        try {
          if (!replyOk(conn.roundTrip(
                  f.requests[k % f.requests.size()].payload))) {
            ++bad;
          }
        } catch (const std::exception&) {
          ++bad;
        }
        ++done;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = secondsSince(t0);
  result.attempted += done.load();
  // With one request in flight per connection nothing may be refused.
  if (bad.load() != 0) {
    result.mismatch(std::to_string(bad.load()) + " closed-loop requests failed",
                    bad.load());
  }
  return {static_cast<double>(done.load() - bad.load()), elapsed};
}

std::vector<double> latencies(const LoadResult& r) {
  std::vector<double> v;
  for (const Sample& s : r.samples) v.push_back(s.latencyMs);
  return v;
}

}  // namespace

Result runQuery(const Options& options, Tracer& tracer) {
  Result result;
  const int nproc =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  // connections + reactor + workers <= nproc + 1
  const int clients = std::max(1, nproc / 2);
  const std::size_t workers =
      static_cast<std::size_t>(std::max(1, nproc + 1 - 1 - clients));

  // --- set-up: simulate, build both SLOGs, start, warm up ----------------
  // One set-up runs before the timed phases; the others are spread
  // between the cycles, so set-up timing samples the same machine phases
  // as the load. Each must rebuild byte-identical SLOGs.
  struct Stand {
    Fixture fixture;
    std::unique_ptr<ute::TraceServer> server;
  };
  std::vector<double> setupS;
  ute::FrameEncoding encoding = ute::FrameEncoding::kRow;
  const auto setUp = [&](int round) {
    const std::int64_t t0 = nowNs();
    Stand stand;
    stand.fixture = buildFixture(options, round, tracer);
    stand.server = std::make_unique<ute::TraceServer>(
        stand.fixture.slogs, serverOptions(stand.fixture, workers));
    // Warm-up: one pass of the mix through the server's own service,
    // in-process (the frame cache ends up as after a wire pass, without
    // timing thousands of loopback round trips), then one wire request.
    ute::TraceClient client("127.0.0.1", stand.server->port());
    encoding = client.frameEncoding();
    ute::ConnectionContext ctx;
    ctx.frameEncoding = encoding;
    for (const Request& r : stand.fixture.requests) {
      ute::processRequest(stand.server->service(), r.payload, ctx);
    }
    if (!replyOk(client.roundTrip(stand.fixture.requests.front().payload))) {
      result.mismatch("the warmed-up server refused its first request");
    }
    setupS.push_back(secondsSince(t0));
    return stand;
  };
  Stand stand = setUp(0);
  const Fixture& fixture = stand.fixture;
  ute::TraceServer& server = *stand.server;
  const std::uint16_t port = server.port();

  // --- timed cycles -------------------------------------------------------
  // Each cycle runs a reference-rate round (and, traced, a traced round
  // beside it), a closed-loop capacity round and one rate of the ladder.
  const double S = options.seconds;
  const double refSeconds = (options.trace ? 0.35 : 0.6) * S / kCycles;
  const double capacityRound = (options.trace ? 0.1 : 0.2) * S / kCycles;
  const double ladderSeconds = (options.trace ? 0.1 : 0.2) * S / kCycles;
  Tracer untraced;
  std::size_t offset = 0;
  const auto run = [&](double rate, double seconds, Tracer& t) {
    LoadResult r = openLoop(port, fixture, rate, seconds, clients, offset, t);
    offset += r.samples.size();
    result.attempted += r.samples.size();
    result.failed += r.failed;
    return r;
  };
  std::vector<LoadResult> loads;
  std::vector<std::vector<double>> refRounds, tracedRounds;
  std::vector<double> late, ladder[kLadder], capacityDone, capacitySeconds;
  ute::Reactor::Stats reactor{};
  bool rungMissed[kLadder] = {};
  for (int c = 0; c < kCycles; ++c) {
    const ute::Reactor::Stats before = server.reactorStats();
    loads.push_back(run(kReferenceRate, refSeconds, untraced));
    const ute::Reactor::Stats after = server.reactorStats();
    reactor.responses += after.responses - before.responses;
    reactor.recvCalls += after.recvCalls - before.recvCalls;
    reactor.sendCalls += after.sendCalls - before.sendCalls;
    reactor.epollWaits += after.epollWaits - before.epollWaits;
    reactor.eventfdWakeups += after.eventfdWakeups - before.eventfdWakeups;
    reactor.bytesOut += after.bytesOut - before.bytesOut;
    if (loads.back().failed != 0) {
      result.mismatch(std::to_string(loads.back().failed) +
                          " requests failed at the reference rate",
                      0);  // run() counted them as failed already
    }
    refRounds.push_back(latencies(loads.back()));
    for (const Sample& s : loads.back().samples) late.push_back(s.lateMs);
    if (options.trace) {
      loads.push_back(run(kReferenceRate, refSeconds, tracer));
      tracedRounds.push_back(latencies(loads.back()));
    }

    const auto [done, elapsed] = closedLoop(port, fixture, capacityRound,
                                            clients, result);
    capacityDone.push_back(done);
    capacitySeconds.push_back(elapsed);

    const int rung = c % kLadder;
    loads.push_back(run(kRates[rung], ladderSeconds, untraced));
    const std::vector<double> lat = latencies(loads.back());
    ladder[rung].insert(ladder[rung].end(), lat.begin(), lat.end());
    const double tail = percentile(lat, tailPercentileFor(lat.size()));
    // A growing backlog shows as the generator falling behind.
    std::vector<double> lateness;
    for (const Sample& s : loads.back().samples) lateness.push_back(s.lateMs);
    rungMissed[rung] |= loads.back().failed != 0 || tail > kLimitMs ||
                        percentile(lateness, 99) > kLimitMs;

    while (setupS.size() < 1 + (c + 1) * (kSetups - 1) / kCycles) {
      const int round = static_cast<int>(setupS.size());
      {
        const Stand again = setUp(round);
        ++result.attempted;
        for (std::size_t i = 0; i < fixture.slogs.size(); ++i) {
          if (!sameFile(fixture.slogs[i], again.fixture.slogs[i])) {
            result.mismatch("repeated set-up built a different SLOG");
          }
        }
      }
      std::filesystem::remove_all(setupDir(options, round));
    }
  }
  double maxQps = 0;
  for (int r = 0; r < kLadder; ++r) {
    if (!rungMissed[r]) maxQps = kRates[r];
  }
  // Figures come from the fastest eighth of the rounds (see fastestEighth):
  // latency rounds ranked by their median, capacity rounds by their
  // time per request.
  const auto pooledFastest = [](const std::vector<std::vector<double>>& rounds) {
    std::vector<double> cost;
    for (const auto& r : rounds) cost.push_back(percentile(r, 50));
    std::vector<double> pooled;
    for (const std::size_t i : fastestEighth(cost)) {
      pooled.insert(pooled.end(), rounds[i].begin(), rounds[i].end());
    }
    return pooled;
  };
  const std::vector<double> refLat = pooledFastest(refRounds);
  const std::vector<double> tracedLat = pooledFastest(tracedRounds);
  std::vector<double> perRequest;
  for (int c = 0; c < kCycles; ++c) {
    perRequest.push_back(capacitySeconds[c] / std::max(1.0, capacityDone[c]));
  }
  double completed = 0, capacityElapsed = 0;
  for (const std::size_t i : fastestEighth(perRequest)) {
    completed += capacityDone[i];
    capacityElapsed += capacitySeconds[i];
  }
  const double capacity = completed / capacityElapsed;
  const ute::WorkerPool::Stats pool = server.service().pool().stats();
  const ute::FrameCache::Stats liveCache = server.service().cache().stats();
  stand.server.reset();

  // --- correctness: sampled wire replies vs in-process processRequest ----
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> sampled;
  for (LoadResult& r : loads) {
    for (auto& s : r.sampled) sampled.push_back(std::move(s));
  }
  {
    ute::TraceService local(fixture.slogs,
                            serverOptions(fixture, 1).service);
    ute::ConnectionContext ctx;
    ctx.frameEncoding = encoding;
    for (const auto& [idx, reply] : sampled) {
      const ute::RequestOutcome expect = ute::processRequest(
          local, fixture.requests[idx].payload, ctx);
      if (expect.response != reply) {
        result.mismatch("wire reply of request " + std::to_string(idx) +
                        " differs from processRequest");
      }
    }
  }
  if (sampled.empty()) result.mismatch("no wire reply was sampled");

  // Percentiles pool every reference round: the machine's speed drifts
  // between phases lasting seconds, and pooling blends them.
  const double tailP = tailPercentileFor(refLat.size());
  const double p50 = percentile(refLat, 50);
  const double p99 = percentile(refLat, tailP);
  const std::string rate =
      std::to_string(static_cast<int>(kReferenceRate)) + " req/s";
  result.endToEnd = {
      setupMetric(setupS, "simulate + build two SLOGs + start + warm-up"),
      {"slog_bytes_per_record",
       static_cast<double>(fixture.slogBytes) /
           static_cast<double>(fixture.slogRecords),
       "B/record", 0, "both served SLOGs, exact count"},
  };
  // Wall-clock figures: printed on every run, per-layer metrics of the
  // traced run (they spread too widely on this host to be gated).
  result.report = {
      {"process.peak_rss_mb", peakRssMb(), "MB", 0, ""},
      {"query.capacity_per_s", capacity, "1/s",
       static_cast<std::uint64_t>(completed),
       "closed loop, " + std::to_string(clients) + " connections"},
      {"query.p50_ms", p50, "ms", refLat.size(), "open loop at " + rate},
      {"query_p99_ms", p99, "ms", refLat.size(),
       "p" + std::to_string(tailP).substr(0, 4) + " at " + rate},
      {"query_max_qps", maxQps, "1/s", kLadder,
       "highest fixed rate with tail <= 50 ms, no failures, no backlog"},
      {"live_cache_hit_ratio",
       static_cast<double>(liveCache.hits) /
           static_cast<double>(std::max<std::uint64_t>(
               1, liveCache.hits + liveCache.misses)),
       "ratio", 0, "server cache over the whole run"},
  };
  for (int r = 0; r < kLadder; ++r) {
    result.report.push_back(
        {"query_p99_ms_at_" + std::to_string(static_cast<int>(kRates[r])),
         percentile(ladder[r], tailPercentileFor(ladder[r].size())), "ms",
         ladder[r].size(), ""});
  }

  // Fixed in-process replay of the mix on a fresh service: exact cache
  // and allocation counts for this seed.
  ute::TraceService replay(fixture.slogs, serverOptions(fixture, 1).service);
  std::uint64_t allocs = 0;
  {
    ute::ConnectionContext ctx;
    ctx.frameEncoding = encoding;
    const std::uint64_t a0 = allocMark();
    const std::int64_t s = nowNs();
    for (const Request& r : fixture.requests) {
      ute::processRequest(replay, r.payload, ctx);
    }
    const std::int64_t e = nowNs();
    allocs = gAllocCalls.load() - a0;
    gCountAllocs.store(false);
    // One span for the whole replay: a span per call would count the
    // tracer's own allocations.
    tracer.add("server.processRequest", 0, s, e, fixture.requests.size());
  }
  result.endToEnd.push_back(
      {"allocs_per_op",
       static_cast<double>(allocs) /
           static_cast<double>(fixture.requests.size()),
       "count", 0, "heap allocations per request, fixed in-process replay"});

  if (options.trace) {
    const ute::FrameCache::Stats cache = replay.cache().stats();
    // The same service calls again, timed one by one.
    std::vector<double> windowUs, summaryUs;
    for (const Request& r : fixture.requests) {
      if (r.op != ute::Opcode::kWindow && r.op != ute::Opcode::kSummary) {
        continue;
      }
      const std::int64_t s = nowNs();
      if (r.op == ute::Opcode::kWindow) {
        ute::WindowQuery q;
        q.t0 = r.t0;
        q.t1 = r.t1;
        replay.window(r.trace, q);
      } else {
        replay.summary(r.trace, r.t0, r.t1);
      }
      const std::int64_t e = nowNs();
      tracer.add(r.op == ute::Opcode::kWindow ? "service.window"
                                              : "service.summary",
                 0, s, e);
      (r.op == ute::Opcode::kWindow ? windowUs : summaryUs)
          .push_back(static_cast<double>(e - s) * 1e-3);
    }
    // Frame decode cost, every frame of both runs.
    std::vector<double> decodeUs;
    for (const std::string& path : fixture.slogs) {
      ute::SlogReader reader(path);
      for (std::size_t i = 0; i < reader.frameIndex().size(); ++i) {
        const std::int64_t s = nowNs();
        reader.readFrame(i);
        const std::int64_t e = nowNs();
        tracer.add("slog.readFrame", 0, s, e);
        decodeUs.push_back(static_cast<double>(e - s) * 1e-3);
      }
    }
    // Client-side decode of the sampled wire replies.
    double decodeNs = 0;
    double decodeBytes = 0;
    for (const auto& [idx, reply] : sampled) {
      const std::int64_t s = nowNs();
      switch (fixture.requests[idx].op) {
        case ute::Opcode::kWindow: ute::decodeWindowReply(reply, encoding); break;
        case ute::Opcode::kFrameAt: ute::decodeFrameAtReply(reply, encoding); break;
        case ute::Opcode::kSummary: ute::decodeSummaryReply(reply); break;
        default: ute::decodeMetricsReply(reply); break;
      }
      const std::int64_t e = nowNs();
      tracer.add("client.decode", 0, s, e);
      decodeNs += static_cast<double>(e - s);
      decodeBytes += static_cast<double>(reply.size());
    }
    const double requests = static_cast<double>(fixture.requests.size());
    const double served = static_cast<double>(reactor.responses);
    const double tracedP50 = percentile(tracedLat, 50);
    std::vector<double> allRef;
    for (const auto& r : refRounds) allRef.insert(allRef.end(), r.begin(), r.end());
    result.layers = {
        {"sim.ns_per_event",
         tracer.totalNs("sim.run") /
             static_cast<double>(tracer.totalCount("sim.run")),
         "ns/event"},
        {"service.window_us_p50", percentile(windowUs, 50), "us",
         windowUs.size()},
        {"service.window_us_p99", percentile(windowUs, 99), "us",
         windowUs.size()},
        {"service.summary_us_p50", percentile(summaryUs, 50), "us",
         summaryUs.size()},
        {"slog.frame_decode_us_p50", percentile(decodeUs, 50), "us",
         decodeUs.size()},
        {"cache.hit_ratio",
         static_cast<double>(cache.hits) /
             static_cast<double>(std::max<std::uint64_t>(
                 1, cache.hits + cache.misses)),
         "ratio", 0, "fixed replay"},
        {"cache.evictions_per_request",
         static_cast<double>(cache.evictions) / requests, "count", 0,
         "fixed replay"},
        {"reactor.syscalls_per_request",
         static_cast<double>(reactor.recvCalls + reactor.sendCalls +
                             reactor.epollWaits) /
             served,
         "count", 0, "recv + send + epoll_wait"},
        {"reactor.eventfd_wakeups_per_request",
         static_cast<double>(reactor.eventfdWakeups) / served,
         "count"},
        {"reactor.bytes_out_per_request",
         static_cast<double>(reactor.bytesOut) / served, "B"},
        {"pool.rejected_ratio",
         static_cast<double>(pool.rejected) /
             static_cast<double>(std::max<std::uint64_t>(
                 1, pool.accepted + pool.rejected)),
         "ratio"},
        {"client.decode_ns_per_byte", decodeNs / std::max(1.0, decodeBytes),
         "ns/B", sampled.size()},
        {"process.allocs_per_request",
         static_cast<double>(allocs) / requests, "count", 0, "fixed replay"},
        {"query.generator_late_ms_p99", percentile(late, 99), "ms",
         late.size()},
        {"query.max_qps", maxQps, "1/s", kLadder},
        {"query.p99_ms", percentile(allRef, tailPercentileFor(allRef.size())),
         "ms", allRef.size(), "every untraced reference round"},
        {"trace.overhead_pct",
         (tracedP50 - p50) / p50 * 100.0, "%", tracedLat.size(),
         "traced minus untraced p50 at the reference rate"},
    };
    result.report.push_back({"trace_overhead_ms",
                             tracedP50 - p50, "ms", tracedLat.size(),
                             "traced minus untraced p50 latency"});
  }
  return result;
}

}  // namespace uteperf
