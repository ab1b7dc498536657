// Workload `live`: an in-process IngestServer publishing into a LiveFeed
// that a TraceServer serves. Three IngestClient sessions replay the
// interval records of a seeded 3-node run converted in set-up, batched
// by IngestClient::queueRecord as utestream does (closed loop: every
// message waits for its ack) while a fourth connection pages
// tailFrames / tailMetrics. Each replay's merged file, SLOG and metrics
// file must byte-match the batch pipeline's outputs for the same seed,
// and the tail must see every sealed frame exactly once.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "analysis/metrics.h"
#include "analysis/metrics_io.h"
#include "common.h"
#include "inputs.h"
#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "server/client.h"
#include "server/server.h"
#include "slog/slog_reader.h"
#include "stream/ingest_client.h"
#include "stream/ingest_protocol.h"
#include "stream/ingest_server.h"
#include "stream/live_feed.h"
#include "stream/stream_merger.h"
#include "support/file_io.h"
#include "workloads/workloads.h"

namespace uteperf {

namespace {

/// Set-ups per run: one before the replays, the rest spread between them.
constexpr std::size_t kSetups = 12;
constexpr int kNodes = 3;
constexpr std::uint32_t kTailPage = 16;
/// IngestClient's default batch size: queueRecord ships a kRecords
/// message once this many body bytes are queued, as utestream does.
constexpr std::size_t kMaxBatchBytes = 256 << 10;

struct NodeFeed {
  std::vector<ute::ThreadEntry> threads;
  std::vector<ute::TimestampPair> pairs;
  std::vector<std::vector<std::uint8_t>> bodies;
  /// Message each body ships in; bodies after the last full message go
  /// with bye(). endsMessage marks the bodies whose queueRecord ships one.
  std::vector<std::uint32_t> messageOf;
  std::vector<bool> endsMessage;
  std::size_t messages = 0;
  /// Input index of the j-th record that reaches the merged output
  /// (clock-sync records are consumed by the merge).
  std::vector<std::size_t> mergedToInput;
};

/// Which acked record lets frame k seal: the record whose addRecord
/// sealed it, or (node -1) the final close after the last bye.
struct FrameCover {
  int node = -1;
  std::size_t mergedIndex = 0;
};

struct Fixture {
  std::vector<NodeFeed> nodes;
  std::map<std::uint32_t, std::string> markers;
  std::vector<std::uint8_t> refMerged, refSlog, refUtm;
  std::vector<FrameCover> covers;
  std::uint64_t records = 0;
  std::uint64_t messages = 0;
};

NodeFeed loadFeed(const std::string& path) {
  NodeFeed feed;
  ute::IntervalFileReader reader(path);
  feed.threads = reader.threads();
  auto stream = reader.records();
  ute::RecordView view;
  std::size_t queued = 0;
  while (stream.next(view)) {
    if (view.eventType() == ute::kClockSyncState &&
        view.body.size() >= ute::kCommonPrefixBytes + 8) {
      ute::TimestampPair p;
      p.local = view.start;
      std::uint64_t g = 0;
      for (int i = 0; i < 8; ++i) {
        g |= static_cast<std::uint64_t>(view.body[ute::kCommonPrefixBytes + i])
             << (8 * i);
      }
      p.global = g;
      feed.pairs.push_back(p);
    } else {
      feed.mergedToInput.push_back(feed.bodies.size());
    }
    feed.bodies.emplace_back(view.body.begin(), view.body.end());
    feed.messageOf.push_back(static_cast<std::uint32_t>(feed.messages));
    queued += view.body.size();
    feed.endsMessage.push_back(queued >= kMaxBatchBytes);
    if (queued >= kMaxBatchBytes) ++feed.messages, queued = 0;
  }
  if (queued > 0) ++feed.messages;
  return feed;
}

Fixture buildFixture(const Options& options, int round, Tracer& tracer) {
  Fixture f;
  const std::string dir = setupDir(options, round);
  ute::TestProgramOptions program;
  program.nodes = kNodes;
  program.tasks = 6;
  program.iterations = ute::testProgramIterationsFor(300'000);
  program.seed = subSeed(options.seed, 6);
  const RawRun raw = simulate(ute::testProgram(program), dir + "/run", tracer);

  // The batch reference, noting which merged record seals each frame.
  std::vector<std::size_t> perNode(kNodes, 0);
  FrameCover current;
  ChainOptions chainOptions;
  chainOptions.onRecord = [&](const ute::RecordView& r) {
    const bool pseudo =
        r.bebits() == ute::Bebits::kContinuation && r.dura == 0;
    if (pseudo || r.node < 0 || r.node >= kNodes) return;
    current.node = r.node;
    current.mergedIndex = perNode[static_cast<std::size_t>(r.node)]++;
  };
  chainOptions.onFrameSealed = [&](const ute::SlogFrameIndexEntry&,
                                   ute::SlogFramePtr) {
    f.covers.push_back(current);
  };
  const ChainOutputs reference =
      convertAndMerge(raw.rawFiles, dir + "/run", chainOptions);
  f.covers.back().node = -1;  // the last frame seals on close()
  for (const std::string& path : reference.intervalFiles) {
    f.nodes.push_back(loadFeed(path));
    ute::IntervalFileReader reader(path);
    for (const auto& [id, name] : reader.markers()) f.markers.emplace(id, name);
  }
  for (int n = 0; n < kNodes; ++n) {
    const NodeFeed& feed = f.nodes[static_cast<std::size_t>(n)];
    if (feed.mergedToInput.size() != perNode[static_cast<std::size_t>(n)]) {
      throw std::runtime_error("live fixture: merged record count of node " +
                               std::to_string(n) +
                               " does not match its input");
    }
    f.records += feed.bodies.size();
    f.messages += feed.messages;
  }
  f.refMerged = ute::readWholeFile(reference.merged);
  f.refSlog = ute::readWholeFile(reference.slog);
  const std::string utm = dir + "/run.utm";
  {
    ute::SlogReader reader(reference.slog);
    ute::writeMetricsFile(utm, ute::computeMetrics(reader));
  }
  f.refUtm = ute::readWholeFile(utm);
  return f;
}

/// Wire bytes of every kRecords message the producers send.
std::uint64_t wireBytes(const Fixture& f) {
  std::uint64_t bytes = 0;
  for (const NodeFeed& feed : f.nodes) {
    std::vector<std::vector<std::uint8_t>> batch;
    for (std::size_t i = 0; i < feed.bodies.size(); ++i) {
      batch.push_back(feed.bodies[i]);
      if (feed.endsMessage[i] || i + 1 == feed.bodies.size()) {
        bytes += ute::encodeIngestRecords(batch).view().size();
        batch.clear();
      }
    }
  }
  return bytes;
}

/// The ingest server's merge without the wire: the feeds, message by
/// message in turn, through ute::StreamMerger with the SlogWriter sink,
/// in one thread. Returns the heap allocations it made (exact for one
/// seed); its SLOG must match the batch reference.
std::uint64_t countMergeAllocs(const Fixture& f, const std::string& dir,
                               Result& result) {
  const ute::Profile profile = ute::makeStandardProfile();
  const std::string slogPath = dir + "/inproc.slog";
  const std::uint64_t a0 = allocMark();
  {
    ute::StreamMerger merger(profile);
    for (int n = 0; n < kNodes; ++n) merger.addInput();
    for (const auto& [id, name] : f.markers) merger.addMarker(id, name);
    for (std::size_t n = 0; n < f.nodes.size(); ++n) {
      merger.setClockPairs(n, f.nodes[n].pairs, /*final=*/true);
      merger.setThreads(n, f.nodes[n].threads);
    }
    std::unique_ptr<ute::SlogWriter> slog;
    merger.openOutput(dir + "/inproc.merged.uti",
                      [&slog](const ute::RecordView& r) { slog->addRecord(r); });
    slog = std::make_unique<ute::SlogWriter>(slogPath, ute::SlogOptions{},
                                             profile, merger.threads(),
                                             merger.markers());
    std::vector<std::size_t> next(f.nodes.size(), 0);
    for (bool more = true; more;) {
      more = false;
      for (std::size_t n = 0; n < f.nodes.size(); ++n) {
        const NodeFeed& feed = f.nodes[n];
        std::size_t& i = next[n];
        if (i == feed.bodies.size()) continue;
        const std::uint32_t message = feed.messageOf[i];
        while (i < feed.bodies.size() && feed.messageOf[i] == message) {
          merger.addRecord(n, feed.bodies[i++]);
        }
        if (i == feed.bodies.size()) merger.closeInput(n);
        merger.advance();
        more = true;
      }
    }
    merger.finish();
    slog->close();
  }
  const std::uint64_t allocs = gAllocCalls.load() - a0;
  gCountAllocs.store(false);
  if (ute::readWholeFile(slogPath) != f.refSlog) {
    result.mismatch("in-process stream merge SLOG differs from batch");
  }
  return allocs;
}

struct Replay {
  double seconds = 0;
  double drainMs = 0;
  std::uint64_t recordsOut = 0;
  std::vector<double> lagMs;     ///< per frame
  std::vector<double> ackUs;     ///< per full kRecords message
  std::vector<double> pollUs;    ///< per tailFrames call
  std::uint64_t polls = 0, usefulPolls = 0;
  std::vector<double> sealGapMs; ///< traced replays only
  std::uint64_t failed = 0;
  std::uint64_t operations = 0;
  ute::Reactor::Stats ingestStats;
  std::string slogPath, mergedPath;
  std::size_t framesSeen = 0;
  bool duplicateFrame = false;
};

Replay replayOnce(const Fixture& f, const std::string& dir, Tracer& tracer) {
  Replay out;
  const ute::Profile profile = ute::makeStandardProfile();
  ute::LiveFeed feed;
  ute::IngestServerOptions io;
  for (int n = 0; n < kNodes; ++n) io.expectedNodes.push_back(n);
  out.mergedPath = dir + "/live.merged.uti";
  out.slogPath = dir + "/live.slog";
  io.outPath = out.mergedPath;
  io.slogPath = out.slogPath;
  ute::IngestServer ingest(profile, io, &feed);
  ute::ServerOptions so;
  so.liveFeed = &feed;
  so.liveName = "live";
  so.service.workers = 1;
  ute::TraceServer query({}, so);

  std::vector<std::vector<std::int64_t>> ackNs(kNodes);
  std::vector<std::vector<double>> ackUs(kNodes);
  std::vector<std::int64_t> byeNs(kNodes, 0);
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::int64_t> recvNs;
  std::vector<std::uint64_t> offsets;

  const std::int64_t start = nowNs();
  std::atomic<bool> watching{tracer.enabled()};
  std::vector<std::int64_t> sealNs;
  std::thread watcher;
  if (tracer.enabled()) {
    watcher = std::thread([&] {
      std::uint64_t seen = 0;
      while (watching.load()) {
        const std::uint64_t count = feed.frameCount();
        for (const std::int64_t t = nowNs(); seen < count; ++seen) {
          sealNs.push_back(t);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  std::thread tail([&] {
    try {
      ute::TraceClient client("127.0.0.1", query.port());
      std::uint64_t cursor = 0;
      for (;;) {
        const std::int64_t s = nowNs();
        const ute::TailFramesReply page = client.tailFrames(0, cursor, kTailPage);
        const std::int64_t e = nowNs();
        tracer.add("tail.tailFrames", 0, s, e);
        out.pollUs.push_back(static_cast<double>(e - s) * 1e-3);
        ++out.polls;
        if (!page.frames.empty()) ++out.usefulPolls;
        for (const ute::TailFrame& frame : page.frames) {
          recvNs.push_back(e);
          offsets.push_back(frame.entry.offset);
        }
        cursor = page.nextCursor;
        if (page.finished && page.frames.empty()) break;
        if (out.polls % 16 == 0) client.tailMetrics(0);
        if (page.frames.empty()) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      }
    } catch (const std::exception&) {
      ++failed;
    }
  });

  std::vector<std::thread> producers;
  for (int n = 0; n < kNodes; ++n) {
    producers.emplace_back([&, n] {
      const NodeFeed& node = f.nodes[static_cast<std::size_t>(n)];
      try {
        ute::IngestClient client("127.0.0.1", ingest.port(), n);
        if (n == 0) {
          for (const auto& [id, name] : f.markers) client.sendMarker(id, name);
        }
        client.sendClockPairs(node.pairs, /*final=*/true);
        client.sendThreads(node.threads);
        // The producer as utestream runs it: queueRecord ships a message
        // whenever kMaxBatchBytes are queued, and waits for its ack.
        auto& acks = ackNs[static_cast<std::size_t>(n)];
        for (std::size_t i = 0; i < node.bodies.size(); ++i) {
          if (!node.endsMessage[i]) {
            client.queueRecord(node.bodies[i]);
            continue;
          }
          const std::int64_t s = nowNs();
          client.queueRecord(node.bodies[i]);
          const std::int64_t e = nowNs();
          tracer.add("ingest.message", 0, s, e);
          ackUs[static_cast<std::size_t>(n)].push_back(
              static_cast<double>(e - s) * 1e-3);
          acks.push_back(e);
        }
        // bye() ships the last, partial message; its ack covers those
        // records too.
        client.bye();
        acks.push_back(nowNs());
        byeNs[static_cast<std::size_t>(n)] = acks.back();
      } catch (const std::exception&) {
        ++failed;
      }
    });
  }
  for (auto& t : producers) t.join();
  const std::int64_t lastBye = *std::max_element(byeNs.begin(), byeNs.end());
  const ute::StreamMergeResult merged = ingest.wait();
  const std::int64_t done = nowNs();
  tail.join();
  if (watcher.joinable()) {
    watching.store(false);
    watcher.join();
  }
  out.ingestStats = ingest.reactorStats();
  query.stop();
  ingest.stop();
  tracer.add("live.replay", 0, start, done);

  out.seconds = static_cast<double>(done - start) * 1e-9;
  out.drainMs = static_cast<double>(done - lastBye) * 1e-6;
  out.recordsOut = merged.recordsOut;
  out.failed = failed.load();
  out.operations = f.messages + 3 * kNodes + out.polls;
  out.framesSeen = offsets.size();
  std::sort(offsets.begin(), offsets.end());
  out.duplicateFrame =
      std::adjacent_find(offsets.begin(), offsets.end()) != offsets.end();
  for (const auto& us : ackUs) out.ackUs.insert(out.ackUs.end(), us.begin(), us.end());
  if (out.failed == 0) {
    for (std::size_t k = 0; k < recvNs.size() && k < f.covers.size(); ++k) {
      const FrameCover& c = f.covers[k];
      std::int64_t cover = lastBye;
      if (c.node >= 0) {
        const std::size_t input =
            f.nodes[static_cast<std::size_t>(c.node)].mergedToInput[c.mergedIndex];
        cover = ackNs[static_cast<std::size_t>(c.node)]
                     [f.nodes[static_cast<std::size_t>(c.node)].messageOf[input]];
      }
      out.lagMs.push_back(static_cast<double>(recvNs[k] - cover) * 1e-6);
    }
  }
  for (std::size_t i = 1; i < sealNs.size(); ++i) {
    out.sealGapMs.push_back(static_cast<double>(sealNs[i] - sealNs[i - 1]) *
                            1e-6);
  }
  return out;
}

}  // namespace

Result runLive(const Options& options, Tracer& tracer) {
  Result result;
  std::vector<double> setupS;
  Fixture fixture;
  // One set-up before the replays, the others spread between them; each
  // must rebuild the same batch reference.
  const auto setUp = [&](int round) {
    const std::int64_t t0 = nowNs();
    Fixture f = buildFixture(options, round, tracer);
    setupS.push_back(secondsSince(t0));
    return f;
  };
  fixture = setUp(0);
  const auto setUpAgain = [&] {
    const int round = static_cast<int>(setupS.size());
    if (setUp(round).refSlog != fixture.refSlog) {
      result.mismatch("repeated set-up built a different batch reference");
    }
    ++result.attempted;
    std::filesystem::remove_all(setupDir(options, round));
  };
  Tracer untraced;
  std::vector<Replay> plain, traced;
  const std::int64_t start = nowNs();
  const int minReplays = options.trace ? 5 : 3;
  for (int i = 0; i < minReplays || secondsSince(start) < options.seconds;
       ++i) {
    const bool isTraced = options.trace && i % 2 == 0 && i > 0;
    const std::string dir = options.outDir + "/replay";
    std::filesystem::create_directories(dir);
    Replay r = replayOnce(fixture, dir, isTraced ? tracer : untraced);
    result.attempted += r.operations;
    result.failed += r.failed;
    if (ute::readWholeFile(r.mergedPath) != fixture.refMerged) {
      result.mismatch("live merged file differs from batch");
    }
    if (ute::readWholeFile(r.slogPath) != fixture.refSlog) {
      result.mismatch("live SLOG differs from batch");
    }
    {
      ute::SlogReader reader(r.slogPath);
      if (ute::computeMetrics(reader).encode() != fixture.refUtm) {
        result.mismatch("live metrics file differs from batch");
      }
    }
    if (r.framesSeen != fixture.covers.size() || r.duplicateFrame) {
      result.mismatch("tail saw " + std::to_string(r.framesSeen) +
                      " frames, expected each of " +
                      std::to_string(fixture.covers.size()) + " once");
    }
    // The first replay warms up; it is checked but not measured.
    if (i > 0) (isTraced ? traced : plain).push_back(std::move(r));
    if (setupS.size() < kSetups &&
        secondsSince(start) >= static_cast<double>(setupS.size()) *
                                   options.seconds / kSetups) {
      setUpAgain();
    }
  }

  while (setupS.size() < kSetups) setUpAgain();

  const auto collect = [](const std::vector<Replay>& rs, auto field) {
    std::vector<double> v;
    for (const Replay& r : rs) {
      const std::vector<double>& x = r.*field;
      v.insert(v.end(), x.begin(), x.end());
    }
    return v;
  };
  const auto each = [](const std::vector<Replay>& rs, auto fn) {
    std::vector<double> v;
    for (const Replay& r : rs) v.push_back(fn(r));
    return v;
  };
  // Figures come from the fastest eighth of the measured replays (see
  // fastestEighth), ranked by time per record.
  std::vector<double> perRecord;
  for (const Replay& r : plain) {
    perRecord.push_back(r.seconds / static_cast<double>(r.recordsOut));
  }
  std::vector<Replay> fast;
  for (const std::size_t i : fastestEighth(perRecord)) fast.push_back(plain[i]);
  double records = 0, seconds = 0;
  for (const Replay& r : fast) {
    records += static_cast<double>(r.recordsOut);
    seconds += r.seconds;
  }
  const double rps = records / seconds;
  const std::vector<double> lag = collect(fast, &Replay::lagMs);
  const std::vector<double> drain =
      each(plain, [](const Replay& r) { return r.drainMs; });
  const double tailP = tailPercentileFor(lag.size());
  const double lagP50 = percentile(lag, 50);
  const double lagTail = percentile(lag, tailP);
  const double slogPerRecord =
      static_cast<double>(fixture.refSlog.size()) /
      static_cast<double>(plain.front().recordsOut);

  const std::string inproc = options.outDir + "/inproc";
  std::filesystem::create_directories(inproc);
  const std::uint64_t mergeAllocs = countMergeAllocs(fixture, inproc, result);
  ++result.attempted;
  result.endToEnd = {
      setupMetric(setupS, "simulate + convert + batch reference"),
      {"slog_bytes_per_record", slogPerRecord, "B/record", 0,
       "exact count"},
      {"allocs_per_op",
       static_cast<double>(mergeAllocs) / static_cast<double>(fixture.records),
       "count", 0,
       "heap allocations per record, StreamMerger + SlogWriter in-process"},
  };
  // Wall-clock figures: printed on every run, per-layer metrics of the
  // traced run (they spread too widely on this host to be gated).
  result.report = {
      {"process.peak_rss_mb", peakRssMb(), "MB", 0, ""},
      {"live.records_per_s", rps, "1/s", fast.size(),
       "fastest eighth of the replays, 3 ingest sessions"},
      {"live.tail_lag_p50_ms", lagP50, "ms", lag.size(),
       "covering ack -> frame at the tail client"},
      {"live_tail_lag_p99_ms", lagTail, "ms", lag.size(),
       "p" + std::to_string(tailP).substr(0, 4)},
      {"live_drain_ms", median(drain), "ms", drain.size(),
       "last bye ack -> IngestServer::wait() returns"},
      {"records_per_replay", static_cast<double>(fixture.records), "count", 0,
       ""},
      {"frames_per_replay", static_cast<double>(fixture.covers.size()),
       "count", 0, ""},
  };

  if (options.trace) {
    const std::vector<double> ack = collect(traced, &Replay::ackUs);
    const std::vector<double> gaps = collect(traced, &Replay::sealGapMs);
    const std::vector<double> polls = collect(traced, &Replay::pollUs);
    double pollsTotal = 0, useful = 0;
    for (const Replay& r : traced) {
      pollsTotal += static_cast<double>(r.polls);
      useful += static_cast<double>(r.usefulPolls);
    }
    const ute::Reactor::Stats& st = plain.front().ingestStats;
    const auto replayS = [](const Replay& r) { return r.seconds; };
    const double plainS = median(each(plain, replayS));
    const std::vector<double> allLag = collect(plain, &Replay::lagMs);
    const double tracedS = median(each(traced, replayS));
    result.layers = {
        {"sim.ns_per_event",
         tracer.totalNs("sim.run") /
             static_cast<double>(tracer.totalCount("sim.run")),
         "ns/event"},
        {"slog.frames", static_cast<double>(fixture.covers.size()), "count"},
        {"ingest.ack_us_p50", percentile(ack, 50), "us", ack.size()},
        {"ingest.ack_us_p99", percentile(ack, tailPercentileFor(ack.size())),
         "us", ack.size(),
         "p" + std::to_string(tailPercentileFor(ack.size())).substr(0, 4) +
             " of the kRecords round trips"},
        {"ingest.wire_bytes_per_record",
         static_cast<double>(wireBytes(fixture)) /
             static_cast<double>(fixture.records),
         "B/record", 0, "exact count"},
        {"ingest.syscalls_per_message",
         static_cast<double>(st.recvCalls + st.sendCalls + st.epollWaits) /
             static_cast<double>(std::max<std::uint64_t>(1, st.requests)),
         "count", 0, "recv + send + epoll_wait"},
        {"stream.seal_gap_ms_p50", percentile(gaps, 50), "ms", gaps.size()},
        {"stream.seal_gap_ms_max", percentile(gaps, 100), "ms", gaps.size()},
        {"tail.poll_us_p50", percentile(polls, 50), "us", polls.size()},
        {"tail.useful_poll_ratio", useful / std::max(1.0, pollsTotal),
         "ratio"},
        {"live.drain_ms", median(drain), "ms", drain.size()},
        {"live.tail_lag_p99_ms",
         percentile(allLag, tailPercentileFor(allLag.size())), "ms",
         allLag.size(), "every untraced replay"},
        {"trace.overhead_pct", (tracedS - plainS) / plainS * 100.0, "%",
         traced.size(), "traced minus untraced replay time"},
    };
    result.report.push_back({"trace_overhead_ms", (tracedS - plainS) * 1e3,
                             "ms", traced.size(),
                             "traced minus untraced replay time"});
  }
  return result;
}

}  // namespace uteperf
