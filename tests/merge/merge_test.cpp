// Merge utility tests (Sections 2.2, 3.1, 3.3): clock alignment and
// drift adjustment, end-time-ordered k-way merging, origStart
// provenance, pseudo-interval injection at frame starts, and the naive
// vs tournament-tree ablation equivalence.
#include "merge/merger.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "clock/clock_model.h"
#include "interval/standard_profile.h"
#include "support/file_io.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  // Each TEST in this file runs as its own ctest process; prefixing the
  // pid keeps parallel processes from clobbering each other's fixtures.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

/// Writes a per-node interval file whose local clock drifts by
/// `driftPpm` / starts at `offsetNs`: `n` Running records of 1 ms every
/// 2 ms (true time), plus periodic ClockSync records carrying the truth.
std::string writeNodeFile(const std::string& name, NodeId node,
                          double driftPpm, TickDelta offsetNs, int n,
                          std::size_t frameBytes = 32 << 10) {
  LocalClockModel::Params params;
  params.driftPpm = driftPpm;
  params.offsetNs = offsetNs;
  const LocalClockModel clock(params);

  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  options.targetFrameBytes = frameBytes;
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
    if (i % 100 == 99) {
      w.addRecord(clockSync(t + 2 * kMs - 1).view());
    }
  }
  w.addRecord(clockSync(static_cast<Tick>(n) * 2 * kMs).view());
  w.close();
  return path;
}

TEST(Merge, AdjustsDriftedTimestampsOntoGlobalTime) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("merge_a.uti", 0, +120.0, 500 * kUs, 400);
  const auto b = writeNodeFile("merge_b.uti", 1, -80.0, 300 * kUs, 400);

  IntervalMerger merger({a, b}, profile);
  const MergeResult result = merger.mergeTo(tempPath("merge_ab.uti"));
  ASSERT_EQ(result.ratios.size(), 2u);
  EXPECT_NEAR(result.ratios[0], 1.0 / 1.000120, 1e-6);
  EXPECT_NEAR(result.ratios[1], 1.0 / 0.999920, 1e-6);

  // After adjustment, both nodes' i-th records land within a few us of
  // their true times — despite offsets of hundreds of us and opposite
  // drifts that would otherwise separate them by ~700 us.
  IntervalFileReader merged(tempPath("merge_ab.uti"));
  EXPECT_TRUE(merged.header().merged());
  EXPECT_EQ(merged.header().fieldSelectionMask, kMergedFileMask);
  auto stream = merged.records();
  RecordView view;
  std::map<NodeId, std::vector<Tick>> starts;
  Tick lastEnd = 0;
  while (stream.next(view)) {
    EXPECT_GE(view.end(), lastEnd);  // paper: ascending end time
    lastEnd = view.end();
    if (view.eventType() == kRunningState) {
      starts[view.node].push_back(view.start);
    }
  }
  ASSERT_EQ(starts[0].size(), 400u);
  ASSERT_EQ(starts[1].size(), 400u);
  for (std::size_t i = 0; i < 400; ++i) {
    const auto trueStart = static_cast<double>(i * 2 * kMs);
    EXPECT_NEAR(static_cast<double>(starts[0][i]), trueStart, 5000.0);
    EXPECT_NEAR(static_cast<double>(starts[1][i]), trueStart, 5000.0);
  }
}

TEST(Merge, OrigStartPreservesLocalTimes) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("merge_orig.uti", 0, +120.0, 500 * kUs, 50);
  IntervalMerger merger({a}, profile);
  merger.mergeTo(tempPath("merge_orig_out.uti"));

  IntervalFileReader merged(tempPath("merge_orig_out.uti"));
  auto stream = merged.records();
  RecordView view;
  LocalClockModel::Params params;
  params.driftPpm = +120.0;
  params.offsetNs = 500 * kUs;
  const LocalClockModel clock(params);
  std::size_t i = 0;
  while (stream.next(view)) {
    if (view.eventType() != kRunningState) continue;
    const auto orig =
        getScalarByName(profile, kMergedFileMask, view, kFieldOrigStart);
    ASSERT_TRUE(orig.has_value());
    // origStart is the pre-adjustment local timestamp.
    EXPECT_EQ(static_cast<Tick>(*orig), clock.read(i * 2 * kMs));
    ++i;
  }
  EXPECT_EQ(i, 50u);
}

TEST(Merge, ClockRecordsDroppedByDefaultKeptOnRequest) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("merge_clockdrop.uti", 0, 10.0, 0, 150);

  const auto countClockRecs = [&](const std::string& path) {
    IntervalFileReader reader(path);
    auto stream = reader.records();
    RecordView view;
    int n = 0;
    while (stream.next(view)) {
      if (view.eventType() == kClockSyncState) ++n;
    }
    return n;
  };

  IntervalMerger dropper({a}, profile);
  dropper.mergeTo(tempPath("merge_drop_out.uti"));
  EXPECT_EQ(countClockRecs(tempPath("merge_drop_out.uti")), 0);

  MergeOptions keep;
  keep.keepClockRecords = true;
  IntervalMerger keeper({a}, profile, keep);
  keeper.mergeTo(tempPath("merge_keep_out.uti"));
  EXPECT_EQ(countClockRecs(tempPath("merge_keep_out.uti")), 3);
}

TEST(Merge, PseudoIntervalsRestateOpenStatesAtFrameStarts) {
  // One long marker state spans many small frames: every frame after the
  // one containing its begin piece (and before its end) must start with
  // a zero-duration continuation pseudo-interval (Section 3.3).
  const Profile profile = makeStandardProfile();
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  std::vector<ThreadEntry> threads = {{0, 1000, 10000, 0, 0,
                                       ThreadType::kMpi}};
  const std::string in = tempPath("merge_pseudo_in.uti");
  {
    IntervalFileWriter w(in, options, threads);
    w.addMarker(5, "long phase");
    ByteWriter all;
    all.u32(5);  // markerId
    ByteWriter begin = all;
    begin.u64(0xdead);  // instrAddrBegin
    // Marker begin piece [0, 1ms).
    ByteWriter body;
    encodeRecordBody(body,
                     makeIntervalType(EventType::kUserMarker, Bebits::kBegin),
                     0, kMs, 0, 0, 0, begin.view());
    w.addRecord(body.view());
    // Many Running pieces on another thread... (same thread suffices:
    // continuation-free gap until the marker ends much later).
    for (int i = 1; i < 800; ++i) {
      encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                       static_cast<Tick>(i) * kMs, kMs / 2, 0, 0, 0);
      w.addRecord(body.view());
    }
    ByteWriter end = all;
    end.u64(0xbeef);
    encodeRecordBody(body,
                     makeIntervalType(EventType::kUserMarker, Bebits::kEnd),
                     800 * kMs, kMs, 0, 0, 0, end.view());
    w.addRecord(body.view());
    w.close();
  }

  MergeOptions small;
  small.targetFrameBytes = 2048;  // force many frames
  IntervalMerger merger({in}, profile, small);
  const MergeResult result = merger.mergeTo(tempPath("merge_pseudo_out.uti"));
  EXPECT_GT(result.pseudoRecords, 5u);

  // Check every frame after the first starts with the marker pseudo
  // record while the marker is open.
  IntervalFileReader merged(tempPath("merge_pseudo_out.uti"));
  int framesChecked = 0;
  for (FrameDirectory dir = merged.firstDirectory(); !dir.frames.empty();
       dir = merged.readDirectory(dir.nextOffset)) {
    for (std::size_t f = 0; f < dir.frames.size(); ++f) {
      const FrameBuf bytes = merged.readFrame(dir.frames[f]);
      ByteReader r = bytes.reader();
      const RecordView first = RecordView::parse(readLengthPrefixedRecord(r));
      if (framesChecked > 0 &&
          dir.frames[f].endTime <= 800 * kMs) {
        EXPECT_EQ(first.eventType(), EventType::kUserMarker);
        EXPECT_EQ(first.bebits(), Bebits::kContinuation);
        EXPECT_EQ(first.dura, 0u);
        // The pseudo record carries the markerId every piece carries.
        EXPECT_EQ(getScalarByName(profile, kMergedFileMask, first,
                                  kFieldMarkerId),
                  std::optional<std::int64_t>(5));
      }
      ++framesChecked;
    }
    if (dir.nextOffset == 0) break;
  }
  EXPECT_GT(framesChecked, 6);
}

TEST(Merge, NaiveAndTreeMergeProduceIdenticalFiles) {
  const Profile profile = makeStandardProfile();
  std::vector<std::string> inputs;
  for (int node = 0; node < 5; ++node) {
    inputs.push_back(writeNodeFile("merge_eq_" + std::to_string(node) +
                                       ".uti",
                                   node, node * 7.5 - 15.0, node * 1000, 120));
  }
  MergeOptions treeOptions;
  IntervalMerger tree(inputs, profile, treeOptions);
  tree.mergeTo(tempPath("merge_eq_tree.uti"));

  MergeOptions naiveOptions;
  naiveOptions.useNaiveMerge = true;
  IntervalMerger naive(inputs, profile, naiveOptions);
  naive.mergeTo(tempPath("merge_eq_naive.uti"));

  const auto a = readWholeFile(tempPath("merge_eq_tree.uti"));
  const auto b = readWholeFile(tempPath("merge_eq_naive.uti"));
  EXPECT_EQ(a, b);
}

TEST(Merge, ThreadTablesConcatenate) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("merge_tt_a.uti", 0, 0, 0, 10);
  const auto b = writeNodeFile("merge_tt_b.uti", 1, 0, 0, 10);
  IntervalMerger merger({a, b}, profile);
  merger.mergeTo(tempPath("merge_tt_out.uti"));
  IntervalFileReader merged(tempPath("merge_tt_out.uti"));
  ASSERT_EQ(merged.threads().size(), 2u);
  EXPECT_EQ(merged.threads()[0].node, 0);
  EXPECT_EQ(merged.threads()[1].node, 1);
}

TEST(Merge, DuplicateThreadsAcrossInputsRejected) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("merge_dup_a.uti", 0, 0, 0, 10);
  IntervalMerger merger({a, a}, profile);
  EXPECT_THROW(merger.mergeTo(tempPath("merge_dup_out.uti")), FormatError);
}

TEST(Merge, SinkSeesEveryMergedRecord) {
  const Profile profile = makeStandardProfile();
  const auto a = writeNodeFile("merge_sink.uti", 0, 25.0, 100, 200);
  IntervalMerger merger({a}, profile);
  std::uint64_t sunk = 0;
  Tick lastEnd = 0;
  const MergeResult result = merger.mergeTo(
      tempPath("merge_sink_out.uti"), [&](const RecordView& view) {
        EXPECT_GE(view.end(), lastEnd);
        lastEnd = view.end();
        ++sunk;
      });
  EXPECT_EQ(sunk, result.recordsOut);
  EXPECT_EQ(sunk, 200u);  // clock records dropped
}

TEST(Merge, NoInputsRejected) {
  const Profile profile = makeStandardProfile();
  EXPECT_THROW(IntervalMerger({}, profile), UsageError);
}

}  // namespace
}  // namespace ute
