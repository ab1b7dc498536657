// Cross-trace reduction correctness (src/fed/aggregate.h) plus the
// federation wire codecs.
//
// The run-level scalars are pinned against brute-force recomputation
// straight from the store's columns (task-major loops, independent of
// the reducer's bin-major walk), summarize() against hand-computed
// nearest-rank five-number summaries, and compareStores() against its
// algebraic invariants (self-compare is exactly zero, swapping the
// operands exactly negates every delta).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "fed/aggregate.h"
#include "interval/standard_profile.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "trace/events.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

/// A two-task trace: busy intervals on alternating tasks, plus an
/// MpiSend every `mpiEvery`-th step (0 = a communication-free run), so
/// different parameters yield genuinely different comm fractions.
std::string writeSlog(const std::string& name, int records, int mpiEvery) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 48;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {{2, "compute"}});
  for (int i = 0; i < records; ++i) {
    const Tick start = static_cast<Tick>(i) * kMs;
    ByteWriter extra;
    extra.u64(start);
    ByteWriter body;
    encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                     start, kMs / 2, 0, i % 2, 0, extra.view());
    w.addRecord(RecordView::parse(body.view()));
    if (mpiEvery > 0 && i % mpiEvery == 0) {
      ByteWriter args;
      args.i32(1);                                  // destTask
      args.i32(3);                                  // tag
      args.u32(1024);                               // msgSizeSent
      args.u32(static_cast<std::uint32_t>(i));      // seqNo
      args.i32(0);                                  // comm
      ByteWriter sendExtra;
      sendExtra.bytes(args.view());
      sendExtra.u64(start + kMs / 2);
      encodeRecordBody(body,
                       makeIntervalType(EventType::kMpiSend, Bebits::kComplete),
                       start + kMs / 2, kMs / 4, 0, i % 2, 0, sendExtra.view());
      w.addRecord(RecordView::parse(body.view()));
    }
  }
  w.close();
  return path;
}

MetricsStore storeFor(const std::string& path, std::uint32_t bins) {
  SlogReader slog(path);
  MetricsOptions options;
  options.bins = bins;
  return computeMetrics(slog, options);
}

// Relative tolerance for the brute-force comparisons: the oracle sums
// in a different order, so the last few ulps may differ.
void expectClose(double actual, double expected) {
  EXPECT_NEAR(actual, expected,
              1e-9 * std::max(1.0, std::abs(expected)));
}

TEST(Summarize, MatchesHandComputedNearestRank) {
  const Distribution d = summarize({4.0, 1.0, 3.0, 2.0, 5.0});
  EXPECT_EQ(d.min, 1.0);
  EXPECT_EQ(d.max, 5.0);
  EXPECT_EQ(d.mean, 3.0);
  EXPECT_EQ(d.p50, 3.0);  // ceil(0.50 * 5) = rank 3 -> value 3
  EXPECT_EQ(d.p99, 5.0);  // ceil(0.99 * 5) = rank 5 -> value 5
}

TEST(Summarize, EmptyInputIsAllZeros) {
  const Distribution d = summarize({});
  EXPECT_EQ(d.min, 0.0);
  EXPECT_EQ(d.max, 0.0);
  EXPECT_EQ(d.mean, 0.0);
  EXPECT_EQ(d.p50, 0.0);
  EXPECT_EQ(d.p99, 0.0);
}

TEST(Summarize, SingleValueCollapsesEveryStatistic) {
  const Distribution d = summarize({0.25});
  EXPECT_EQ(d.min, 0.25);
  EXPECT_EQ(d.max, 0.25);
  EXPECT_EQ(d.mean, 0.25);
  EXPECT_EQ(d.p50, 0.25);
  EXPECT_EQ(d.p99, 0.25);
}

TEST(RunScalars, MatchBruteForceRecomputation) {
  const MetricsStore store =
      storeFor(writeSlog("agg_scalars.slog", 300, 2), 48);

  // Brute force, task-major (the reducer walks bin-major).
  double wall = 0, mpi = 0, late = 0, totalBusy = 0, maxBusy = 0;
  for (std::uint32_t k = 0; k < store.taskCount(); ++k) {
    double busy = 0;
    for (std::uint32_t b = 0; b < store.bins(); ++b) {
      const double span =
          static_cast<double>(store.binEnd(b) - store.binStart(b));
      wall += span * static_cast<double>(store.threadsPerTask()[k]);
      mpi += static_cast<double>(store.timeNs(StateClass::kMpi, b, k));
      late += static_cast<double>(store.lateSenderNs(b, k));
      busy += static_cast<double>(store.timeNs(StateClass::kBusy, b, k));
    }
    totalBusy += busy;
    maxBusy = std::max(maxBusy, busy);
  }
  ASSERT_GT(wall, 0.0);
  ASSERT_GT(mpi, 0.0);  // the fixture must actually communicate

  expectClose(runCommFraction(store), mpi / wall);
  expectClose(runLoadImbalance(store),
              (maxBusy - totalBusy / store.taskCount()) / maxBusy);
  expectClose(runLateSenderFraction(store), late / wall);

  EXPECT_GT(runCommFraction(store), 0.0);
  EXPECT_LE(runCommFraction(store), 1.0);
  EXPECT_GE(runLoadImbalance(store), 0.0);
  EXPECT_LT(runLoadImbalance(store), 1.0);
}

TEST(RunScalars, CommunicationFreeRunScoresZeroComm) {
  const MetricsStore store =
      storeFor(writeSlog("agg_nocomm.slog", 200, 0), 32);
  EXPECT_EQ(runCommFraction(store), 0.0);
  EXPECT_EQ(runLateSenderFraction(store), 0.0);
}

TEST(AggregateStores, IsExactlyThePerRunScalarsPlusTheirSummary) {
  const MetricsStore a = storeFor(writeSlog("agg_a.slog", 300, 2), 48);
  const MetricsStore b = storeFor(writeSlog("agg_b.slog", 220, 5), 48);
  const MetricsStore c = storeFor(writeSlog("agg_c.slog", 180, 0), 48);

  std::vector<AggregateInput> inputs = {{1, "b1", "a.slog", &a},
                                        {2, "b2", "b.slog", &b},
                                        {3, "b3", "c.slog", &c}};
  const AggregateReply reply = aggregateStores(inputs);

  ASSERT_EQ(reply.runs.size(), 3u);
  std::vector<double> comm, imbalance, late;
  const MetricsStore* stores[] = {&a, &b, &c};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reply.runs[i].globalId, inputs[i].globalId);
    EXPECT_EQ(reply.runs[i].backend, inputs[i].backend);
    EXPECT_EQ(reply.runs[i].name, inputs[i].name);
    EXPECT_EQ(reply.runs[i].commFraction, runCommFraction(*stores[i]));
    EXPECT_EQ(reply.runs[i].loadImbalance, runLoadImbalance(*stores[i]));
    EXPECT_EQ(reply.runs[i].lateSenderFraction,
              runLateSenderFraction(*stores[i]));
    comm.push_back(reply.runs[i].commFraction);
    imbalance.push_back(reply.runs[i].loadImbalance);
    late.push_back(reply.runs[i].lateSenderFraction);
  }
  const Distribution dc = summarize(comm);
  EXPECT_EQ(reply.commFraction.min, dc.min);
  EXPECT_EQ(reply.commFraction.max, dc.max);
  EXPECT_EQ(reply.commFraction.mean, dc.mean);
  EXPECT_EQ(reply.commFraction.p50, dc.p50);
  EXPECT_EQ(reply.commFraction.p99, dc.p99);
  const Distribution di = summarize(imbalance);
  EXPECT_EQ(reply.loadImbalance.mean, di.mean);
  const Distribution dl = summarize(late);
  EXPECT_EQ(reply.lateSenderFraction.max, dl.max);
}

TEST(CompareStores, SelfComparisonIsExactlyZero) {
  const MetricsStore a = storeFor(writeSlog("cmp_self.slog", 250, 3), 40);
  const CompareReply reply = compareStores(a, a, 32);
  ASSERT_EQ(reply.bins, 32u);
  ASSERT_EQ(reply.commDelta.size(), 32u);
  ASSERT_EQ(reply.imbalanceDelta.size(), 32u);
  EXPECT_EQ(reply.maxAbsCommDelta, 0.0);
  EXPECT_EQ(reply.maxAbsImbalanceDelta, 0.0);
  for (std::uint32_t t = 0; t < 32; ++t) {
    EXPECT_EQ(reply.commDelta[t], 0.0) << t;
    EXPECT_EQ(reply.imbalanceDelta[t], 0.0) << t;
  }
}

TEST(CompareStores, SwappingOperandsExactlyNegatesEveryDelta) {
  const MetricsStore a = storeFor(writeSlog("cmp_sw_a.slog", 250, 2), 40);
  const MetricsStore b = storeFor(writeSlog("cmp_sw_b.slog", 190, 6), 40);
  const CompareReply ab = compareStores(a, b, 24);
  const CompareReply ba = compareStores(b, a, 24);
  EXPECT_EQ(ab.maxAbsCommDelta, ba.maxAbsCommDelta);
  EXPECT_EQ(ab.maxAbsImbalanceDelta, ba.maxAbsImbalanceDelta);
  for (std::uint32_t t = 0; t < 24; ++t) {
    EXPECT_EQ(ab.commDelta[t], -ba.commDelta[t]) << t;
    EXPECT_EQ(ab.imbalanceDelta[t], -ba.imbalanceDelta[t]) << t;
  }
}

TEST(CompareStores, DetectsTheCommunicationHeavyRun) {
  const MetricsStore quiet = storeFor(writeSlog("cmp_q.slog", 250, 0), 40);
  const MetricsStore chatty = storeFor(writeSlog("cmp_c.slog", 250, 2), 40);
  const CompareReply reply = compareStores(quiet, chatty, 24);
  EXPECT_GT(reply.maxAbsCommDelta, 0.0);
  double sum = 0;
  for (double d : reply.commDelta) sum += d;
  EXPECT_GT(sum, 0.0);  // B (chatty) minus A (quiet) skews positive
}

// --- wire codecs ------------------------------------------------------------

TEST(FedCodecs, ListTracesReplyRoundTrips) {
  std::vector<FedTraceEntry> entries(2);
  entries[0].globalId = 7;
  entries[0].backend = "b1";
  entries[0].name = "/tmp/a.slog";
  entries[0].live = true;
  entries[0].totalStart = 123;
  entries[0].totalEnd = 456789;
  entries[0].frames = 42;
  entries[0].generation = 3;
  entries[1].globalId = 9;
  entries[1].backend = "b2";
  entries[1].name = "/tmp/b.slog";

  const std::vector<std::uint8_t> wire =
      encodeListTracesReply(entries).take();
  const std::vector<FedTraceEntry> back = decodeListTracesReply(wire);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].globalId, 7u);
  EXPECT_EQ(back[0].backend, "b1");
  EXPECT_EQ(back[0].name, "/tmp/a.slog");
  EXPECT_TRUE(back[0].live);
  EXPECT_EQ(back[0].totalStart, 123u);
  EXPECT_EQ(back[0].totalEnd, 456789u);
  EXPECT_EQ(back[0].frames, 42u);
  EXPECT_EQ(back[0].generation, 3u);
  EXPECT_EQ(back[1].globalId, 9u);
  EXPECT_FALSE(back[1].live);
}

TEST(FedCodecs, AggregateReplyRoundTrips) {
  AggregateReply reply;
  AggregateRun run;
  run.globalId = 5;
  run.backend = "b1";
  run.name = "x.slog";
  run.commFraction = 0.125;
  run.loadImbalance = 0.5;
  run.lateSenderFraction = 0.0625;
  reply.runs.push_back(run);
  reply.commFraction = {0.1, 0.9, 0.5, 0.4, 0.8};
  reply.loadImbalance = {0.0, 1.0, 0.5, 0.5, 1.0};
  reply.lateSenderFraction = {0.0, 0.25, 0.125, 0.125, 0.25};

  const AggregateReply back =
      decodeAggregateReply(encodeAggregateReply(reply).take());
  ASSERT_EQ(back.runs.size(), 1u);
  EXPECT_EQ(back.runs[0].globalId, 5u);
  EXPECT_EQ(back.runs[0].backend, "b1");
  EXPECT_EQ(back.runs[0].name, "x.slog");
  EXPECT_EQ(back.runs[0].commFraction, 0.125);
  EXPECT_EQ(back.runs[0].loadImbalance, 0.5);
  EXPECT_EQ(back.runs[0].lateSenderFraction, 0.0625);
  EXPECT_EQ(back.commFraction.min, 0.1);
  EXPECT_EQ(back.commFraction.max, 0.9);
  EXPECT_EQ(back.commFraction.mean, 0.5);
  EXPECT_EQ(back.commFraction.p50, 0.4);
  EXPECT_EQ(back.commFraction.p99, 0.8);
  EXPECT_EQ(back.loadImbalance.max, 1.0);
  EXPECT_EQ(back.lateSenderFraction.p99, 0.25);
}

TEST(FedCodecs, CompareReplyRoundTrips) {
  CompareReply reply;
  reply.bins = 3;
  reply.maxAbsCommDelta = 0.75;
  reply.maxAbsImbalanceDelta = 0.25;
  reply.commDelta = {-0.75, 0.0, 0.5};
  reply.imbalanceDelta = {0.25, -0.125, 0.0};

  const CompareReply back =
      decodeCompareReply(encodeCompareReply(reply).take());
  EXPECT_EQ(back.bins, 3u);
  EXPECT_EQ(back.maxAbsCommDelta, 0.75);
  EXPECT_EQ(back.maxAbsImbalanceDelta, 0.25);
  ASSERT_EQ(back.commDelta.size(), 3u);
  EXPECT_EQ(back.commDelta[0], -0.75);
  EXPECT_EQ(back.commDelta[2], 0.5);
  ASSERT_EQ(back.imbalanceDelta.size(), 3u);
  EXPECT_EQ(back.imbalanceDelta[1], -0.125);
}

}  // namespace
}  // namespace ute
