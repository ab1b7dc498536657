// StreamMerger (docs/STREAMING.md): the batch merge recast as a
// resumable state machine. The load-bearing property: a StreamMerger fed
// the same inputs — in arbitrary interleaved chunks, with advance()
// sprinkled anywhere — writes a merged file byte-identical to the batch
// IntervalMerger, because the watermark rule emits records in exactly
// the batch tournament order.
#include "stream/stream_merger.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <vector>

#include "clock/clock_model.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "support/file_io.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

/// Same drifting-node fixture as the batch merge tests.
std::string writeNodeFile(const std::string& name, NodeId node,
                          double driftPpm, TickDelta offsetNs, int n) {
  LocalClockModel::Params params;
  params.driftPpm = driftPpm;
  params.offsetNs = offsetNs;
  const LocalClockModel clock(params);

  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  std::vector<ThreadEntry> threads = {
      {node, 1000 + node, 10000 + node, node, 0, ThreadType::kMpi}};
  const std::string path = tempPath(name);
  IntervalFileWriter w(path, options, threads);

  const auto clockSync = [&](Tick trueNs) {
    ByteWriter extra;
    extra.u64(trueNs);
    ByteWriter body;
    encodeRecordBody(body, makeIntervalType(kClockSyncState, Bebits::kComplete),
                     clock.read(trueNs), 0, 0, node, 0, extra.view());
    return body;
  };

  w.addRecord(clockSync(0).view());
  for (int i = 0; i < n; ++i) {
    const Tick t = static_cast<Tick>(i) * 2 * kMs;
    ByteWriter body;
    encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                     clock.read(t), clock.read(t + kMs) - clock.read(t), 0,
                     node, 0);
    w.addRecord(body.view());
    if (i % 100 == 99) w.addRecord(clockSync(t + 2 * kMs - 1).view());
  }
  w.addRecord(clockSync(static_cast<Tick>(n) * 2 * kMs).view());
  w.close();
  return path;
}

/// One input's record bodies and batch-style clock pairs, as a producer
/// session would ship them.
struct InputFeed {
  std::vector<ThreadEntry> threads;
  std::vector<TimestampPair> pairs;
  std::vector<std::vector<std::uint8_t>> records;
};

InputFeed loadFeed(const std::string& path) {
  InputFeed feed;
  IntervalFileReader reader(path);
  feed.threads = reader.threads();
  auto stream = reader.records();
  RecordView view;
  while (stream.next(view)) {
    feed.records.emplace_back(view.body.begin(), view.body.end());
    if (view.eventType() == kClockSyncState &&
        view.body.size() >= kCommonPrefixBytes + 8) {
      TimestampPair p;
      p.local = view.start;
      std::uint64_t g = 0;
      for (int i = 0; i < 8; ++i) {
        g |= static_cast<std::uint64_t>(view.body[kCommonPrefixBytes + i])
             << (8 * i);
      }
      p.global = g;
      feed.pairs.push_back(p);
    }
  }
  return feed;
}

/// Four drifting node files of `n` records each.
std::vector<std::string> writeDriftingInputs(const std::string& tag, int n) {
  std::vector<std::string> inputs;
  for (int node = 0; node < 4; ++node) {
    inputs.push_back(writeNodeFile(
        "smerge_" + tag + "_" + std::to_string(node) + ".uti", node,
        node * 12.5 - 20.0, node * 750, n));
  }
  return inputs;
}

/// Feeds an opened StreamMerger its inputs' records (it may close them).
using FeedSchedule =
    std::function<void(StreamMerger&, const std::vector<InputFeed>&)>;

/// Merges `inputs` through a StreamMerger fed by `schedule` and checks
/// the output against the batch merge byte for byte.
void expectFeedMatchesBatch(const std::vector<std::string>& inputs,
                            const std::string& tag,
                            const FeedSchedule& schedule) {
  SCOPED_TRACE(tag);
  const Profile profile = makeStandardProfile();
  const std::string batchPath = tempPath("smerge_batch_" + tag + ".uti");
  IntervalMerger batch(inputs, profile);
  const MergeResult batchResult = batch.mergeTo(batchPath);
  // The O(k) scan shares no selection code with the loser tree, so it
  // is an independent reference for the tree's selection.
  MergeOptions naiveOptions;
  naiveOptions.useNaiveMerge = true;
  const std::string naivePath = tempPath("smerge_naive_" + tag + ".uti");
  IntervalMerger(inputs, profile, naiveOptions).mergeTo(naivePath);

  StreamMerger stream(profile);
  std::vector<InputFeed> feeds;
  for (const std::string& path : inputs) {
    const std::size_t i = stream.addInput();
    feeds.push_back(loadFeed(path));
    stream.setThreads(i, feeds.back().threads);
    stream.setClockPairs(i, feeds.back().pairs, /*final=*/true);
  }
  const std::string streamPath = tempPath("smerge_stream_" + tag + ".uti");
  stream.openOutput(streamPath);
  schedule(stream, feeds);
  const Tick beforeClose = stream.watermark();
  for (std::size_t i = 0; i < feeds.size(); ++i) {
    if (stream.inputOpen(i)) stream.closeInput(i);
  }
  const StreamMergeResult streamResult = stream.finish();
  EXPECT_GE(stream.watermark(), beforeClose);  // watermark is monotone

  EXPECT_EQ(streamResult.recordsOut, batchResult.recordsOut);
  EXPECT_EQ(streamResult.pseudoRecords, batchResult.pseudoRecords);
  ASSERT_EQ(streamResult.ratios.size(), batchResult.ratios.size());
  for (std::size_t i = 0; i < streamResult.ratios.size(); ++i) {
    EXPECT_EQ(streamResult.ratios[i], batchResult.ratios[i]) << i;
  }
  EXPECT_EQ(readWholeFile(streamPath), readWholeFile(batchPath));
  EXPECT_EQ(readWholeFile(naivePath), readWholeFile(batchPath));
}

TEST(StreamMerger, ChunkedInterleavedFeedMatchesBatchByteForByte) {
  const std::vector<std::string> inputs = writeDriftingInputs("eq", 300);

  // Uneven chunks, inputs interleaved, advance() between every burst —
  // the shape of records trickling in over the network.
  expectFeedMatchesBatch(
      inputs, "uneven",
      [](StreamMerger& stream, const std::vector<InputFeed>& feeds) {
        std::vector<std::size_t> cursor(feeds.size(), 0);
        bool progressed = true;
        std::size_t round = 0;
        while (progressed) {
          progressed = false;
          for (std::size_t i = 0; i < feeds.size(); ++i) {
            const std::size_t chunk = 1 + (round + i * 3) % 17;
            for (std::size_t k = 0;
                 k < chunk && cursor[i] < feeds[i].records.size(); ++k) {
              stream.addRecord(i, feeds[i].records[cursor[i]++]);
              progressed = true;
            }
            stream.advance();
          }
          ++round;
        }
      });

  // One record at a time, only to the input the merge stalled on, then
  // advance(): the finest feed there is, so the tournament is rebuilt
  // in place for every record.
  expectFeedMatchesBatch(
      inputs, "single",
      [](StreamMerger& stream, const std::vector<InputFeed>& feeds) {
        std::vector<std::size_t> cursor(feeds.size(), 0);
        for (bool open = true; open;) {
          open = false;
          for (std::size_t i = 0; i < feeds.size(); ++i) {
            if (!stream.inputOpen(i)) continue;
            open = true;
            if (!stream.needsData(i)) continue;
            if (cursor[i] < feeds[i].records.size()) {
              stream.addRecord(i, feeds[i].records[cursor[i]++]);
            } else {
              stream.closeInput(i);
            }
            stream.advance();
          }
        }
      });

  // Two rounds, each one burst of more than 64 KiB to every input, then
  // advance(). The first bursts are staggered, so the first advance()
  // stops when input 0 runs dry with a live tail left on every other
  // input: the second round's bursts land on arenas holding drained
  // bytes and live ones, which are compacted in place.
  expectFeedMatchesBatch(
      writeDriftingInputs("burst", 6000), "burst",
      [](StreamMerger& stream, const std::vector<InputFeed>& feeds) {
        std::vector<std::size_t> cursor(feeds.size(), 0);
        for (std::size_t round = 0; round < 2; ++round) {
          for (std::size_t i = 0; i < feeds.size(); ++i) {
            const auto& records = feeds[i].records;
            const std::size_t stop =
                round == 0 ? records.size() / 2 + 200 * i : records.size();
            std::size_t bytes = 0;
            for (; cursor[i] < stop; ++cursor[i]) {
              stream.addRecord(i, records[cursor[i]]);
              bytes += records[cursor[i]].size();
            }
            EXPECT_GT(bytes, std::size_t{64} << 10);
          }
          stream.advance();
        }
      });
}

TEST(StreamMerger, OutOfOrderRecordsWithinAnInputRejected) {
  const Profile profile = makeStandardProfile();
  const auto path = writeNodeFile("smerge_ooo.uti", 0, 0.0, 0, 20);
  StreamMerger merger(profile);
  const std::size_t i = merger.addInput();
  InputFeed feed = loadFeed(path);
  merger.setThreads(i, feed.threads);
  merger.setClockPairs(i, feed.pairs, /*final=*/true);
  merger.openOutput(tempPath("smerge_ooo_out.uti"));
  merger.addRecord(i, feed.records[5]);
  EXPECT_THROW(merger.addRecord(i, feed.records[1]), FormatError);
}

TEST(StreamMerger, AbortSynthesizesEndPiecesForOpenStates) {
  const Profile profile = makeStandardProfile();
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  std::vector<ThreadEntry> threads = {
      {0, 1000, 10000, 0, 0, ThreadType::kMpi}};

  StreamMerger merger(profile);
  const std::size_t i = merger.addInput();
  merger.setThreads(i, threads);
  merger.addMarker(3, "torn phase");
  merger.setClockPairs(i, {}, /*final=*/true);  // identity fit, frozen
  merger.openOutput(tempPath("smerge_abort_out.uti"));

  // A marker begin piece with no end — the node dies mid-state.
  ByteWriter extra;
  extra.u32(3);       // markerId (always-field)
  extra.u64(0xabcd);  // instrAddrBegin
  ByteWriter body;
  encodeRecordBody(body,
                   makeIntervalType(EventType::kUserMarker, Bebits::kBegin), 0,
                   kMs, 0, 0, 0, extra.view());
  merger.addRecord(
      i, body.view());
  merger.abortInput(i);
  EXPECT_FALSE(merger.inputOpen(i));
  const StreamMergeResult result = merger.finish();
  EXPECT_EQ(result.abortClosures, 1u);

  // The synthesized closure is a zero-duration end piece at the node's
  // frontier, carrying the marker's always-fields.
  IntervalFileReader merged(tempPath("smerge_abort_out.uti"));
  auto stream = merged.records();
  RecordView view;
  bool sawClosure = false;
  Tick lastEnd = 0;
  while (stream.next(view)) {
    EXPECT_GE(view.end(), lastEnd);
    lastEnd = view.end();
    if (view.eventType() == EventType::kUserMarker &&
        view.bebits() == Bebits::kEnd) {
      sawClosure = true;
      EXPECT_EQ(view.dura, 0u);
    }
  }
  EXPECT_TRUE(sawClosure);
}

TEST(StreamMerger, NeedsDataTracksBufferedRecords) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("smerge_needs_a.uti", 0, 0.0, 0, 10);
  const auto b = writeNodeFile("smerge_needs_b.uti", 1, 0.0, 0, 10);
  StreamMerger merger(profile);
  InputFeed fa = loadFeed(a);
  InputFeed fb = loadFeed(b);
  const std::size_t ia = merger.addInput();
  const std::size_t ib = merger.addInput();
  merger.setThreads(ia, fa.threads);
  merger.setThreads(ib, fb.threads);
  merger.setClockPairs(ia, fa.pairs, /*final=*/true);
  merger.setClockPairs(ib, fb.pairs, /*final=*/true);
  merger.openOutput(tempPath("smerge_needs_out.uti"));
  EXPECT_TRUE(merger.needsData(ia));

  for (const auto& r : fa.records) merger.addRecord(ia, r);
  EXPECT_GT(merger.bufferedBytes(ia), 0u);
  EXPECT_EQ(merger.bufferedBytes(ia), merger.bufferedBytes());
  merger.advance();
  // Input b sent nothing, so nothing can be emitted yet and a still
  // holds bytes; b is the one starving the merge.
  EXPECT_TRUE(merger.needsData(ib));
  EXPECT_GT(merger.bufferedBytes(ia), 0u);

  for (const auto& r : fb.records) merger.addRecord(ib, r);
  merger.closeInput(ia);
  merger.closeInput(ib);
  merger.finish();
  EXPECT_EQ(merger.bufferedBytes(), 0u);
}

}  // namespace
}  // namespace ute
