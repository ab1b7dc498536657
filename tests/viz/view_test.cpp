// Time-space diagram model tests over a hand-built merged interval file
// whose exact geometry is known.
#include "viz/timeline_model.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "interval/file_writer.h"
#include "interval/standard_profile.h"

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

/// Two nodes, two threads on node 0 (one idle), one thread on node 1.
/// Thread (0,0) runs a send split across cpus 0 and 1 (migration);
/// thread (1,0) receives it.
class ViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tempPath("view_test.uti");
    IntervalFileOptions options;
    options.profileVersion = kStandardProfileVersion;
    options.fieldSelectionMask = kMergedFileMask;
    options.merged = true;
    std::vector<ThreadEntry> threads = {
        {0, 1000, 10000, 0, 0, ThreadType::kMpi},
        {0, 1000, 10001, 0, 1, ThreadType::kUser},  // stays idle
        {1, 1001, 10002, 1, 0, ThreadType::kMpi},
        {-1, 1, 10003, 0, 2, ThreadType::kSystem},
    };
    IntervalFileWriter w(path_, options, threads);

    const auto add = [&](EventType event, Bebits bebits, Tick start,
                         Tick dura, std::int32_t cpu, NodeId node,
                         LogicalThreadId thread, ByteWriter args = {}) {
      args.u64(start);  // origStart (merged mask)
      ByteWriter body;
      encodeRecordBody(body, makeIntervalType(event, bebits), start, dura, cpu,
                       node, thread, args.view());
      w.addRecord(body.view());
    };
    const auto sendArgs = [] {
      ByteWriter a;
      a.i32(1);
      a.i32(0);
      a.u32(1024);
      a.u32(55);  // seqno
      a.i32(0);
      return a;
    };
    const auto recvEndArgs = [] {
      ByteWriter a;
      a.i32(0);
      a.i32(0);
      a.u32(1024);
      a.u32(55);
      return a;
    };

    // (0,0): Running [0,100) cpu0; Send begin [100,200) cpu0;
    //        Send end [300,400) cpu1 (migrated); Running [400,500) cpu1.
    add(kRunningState, Bebits::kBegin, 0, 100, 0, 0, 0);
    add(EventType::kMpiSend, Bebits::kBegin, 100, 100, 0, 0, 0, sendArgs());
    add(EventType::kMpiSend, Bebits::kEnd, 300, 100, 1, 0, 0);
    // (1,0): Recv complete [150,450) cpu0 of node 1.
    add(EventType::kMpiRecv, Bebits::kComplete, 150, 300, 0, 1, 0,
        [&] {
          ByteWriter a;
          a.i32(0);
          a.i32(0);
          a.i32(0);
          const auto r = recvEndArgs();
          a.bytes(r.view());
          return a;
        }());
    add(kRunningState, Bebits::kEnd, 400, 100, 1, 0, 0);
    w.close();
  }

  TimeSpaceModel build(ViewOptions options) {
    IntervalFileReader reader(path_);
    const Profile profile = makeStandardProfile();
    return buildView(reader, profile, options);
  }

  const VizTimeline& row(const TimeSpaceModel& m, const std::string& label) {
    for (const VizTimeline& r : m.rows) {
      if (r.label == label) return r;
    }
    throw std::runtime_error("no row " + label);
  }

  std::string path_;
};

TEST_F(ViewTest, ThreadActivityPiecesShowEveryPiece) {
  ViewOptions options;
  options.kind = ViewKind::kThreadActivity;
  const TimeSpaceModel m = build(options);
  // Rows: all non-system threads, including the idle one.
  ASSERT_EQ(m.rows.size(), 3u);
  EXPECT_EQ(row(m, "n0.t1").segments.size(), 0u);  // the idle thread
  const auto& t0 = row(m, "n0.t0");
  EXPECT_EQ(t0.segments.size(), 4u);
  const auto& t1 = row(m, "n1.t0");
  ASSERT_EQ(t1.segments.size(), 1u);
  EXPECT_EQ(t1.segments[0].colorKey,
            static_cast<std::uint32_t>(EventType::kMpiRecv));
  EXPECT_EQ(m.minTime, 0u);
  EXPECT_EQ(m.maxTime, 500u);
  // Legend names resolved.
  EXPECT_EQ(m.legend.at(static_cast<std::uint32_t>(EventType::kMpiSend)).first,
            "MPI_Send");
}

TEST_F(ViewTest, ThreadActivityConnectedJoinsPieces) {
  ViewOptions options;
  options.kind = ViewKind::kThreadActivity;
  options.connectPieces = true;
  const TimeSpaceModel m = build(options);
  const auto& t0 = row(m, "n0.t0");
  // Connected: Running [0,500) at depth 0 and Send [100,400) at depth 1.
  ASSERT_EQ(t0.segments.size(), 2u);
  EXPECT_EQ(t0.segments[0].colorKey,
            static_cast<std::uint32_t>(kRunningState));
  EXPECT_EQ(t0.segments[0].start, 0u);
  EXPECT_EQ(t0.segments[0].end, 500u);
  EXPECT_EQ(t0.segments[0].depth, 0);
  EXPECT_EQ(t0.segments[1].colorKey,
            static_cast<std::uint32_t>(EventType::kMpiSend));
  EXPECT_EQ(t0.segments[1].start, 100u);
  EXPECT_EQ(t0.segments[1].end, 400u);
  EXPECT_EQ(t0.segments[1].depth, 1);
}

TEST_F(ViewTest, ProcessorActivityMapsPiecesToCpus) {
  ViewOptions options;
  options.kind = ViewKind::kProcessorActivity;
  options.cpuCountHint = {{0, 2}, {1, 2}};
  const TimeSpaceModel m = build(options);
  ASSERT_EQ(m.rows.size(), 4u);
  // cpu0 of node 0 saw Running + Send-begin pieces; cpu1 the rest.
  EXPECT_EQ(row(m, "n0.cpu0").segments.size(), 2u);
  EXPECT_EQ(row(m, "n0.cpu1").segments.size(), 2u);
  EXPECT_EQ(row(m, "n1.cpu0").segments.size(), 1u);
  EXPECT_EQ(row(m, "n1.cpu1").segments.size(), 0u);  // idle cpu shown
}

TEST_F(ViewTest, ThreadProcessorViewShowsMigration) {
  ViewOptions options;
  options.kind = ViewKind::kThreadProcessor;
  const TimeSpaceModel m = build(options);
  const auto& t0 = row(m, "n0.t0");
  std::set<std::uint32_t> cpus;
  for (const VizSegment& s : t0.segments) cpus.insert(s.colorKey);
  EXPECT_EQ(cpus.size(), 2u);  // the thread visited cpu 0 and cpu 1
  // Legend labels are cpu names.
  for (const auto& [key, entry] : m.legend) {
    EXPECT_NE(entry.first.find("cpu"), std::string::npos);
  }
}

TEST_F(ViewTest, ProcessorThreadViewShowsAllocation) {
  ViewOptions options;
  options.kind = ViewKind::kProcessorThread;
  const TimeSpaceModel m = build(options);
  const auto& cpu0 = row(m, "n0.cpu0");
  ASSERT_GE(cpu0.segments.size(), 1u);
  for (const auto& [key, entry] : m.legend) {
    EXPECT_EQ(entry.first.find("cpu"), std::string::npos);
    EXPECT_NE(entry.first.find(".t"), std::string::npos);
  }
}

TEST_F(ViewTest, ArrowsConnectSendToRecv) {
  ViewOptions options;
  options.kind = ViewKind::kThreadActivity;
  const TimeSpaceModel m = build(options);
  ASSERT_EQ(m.arrows.size(), 1u);
  const VizArrow& a = m.arrows[0];
  EXPECT_EQ(m.rows[a.fromRow].label, "n0.t0");
  EXPECT_EQ(m.rows[a.toRow].label, "n1.t0");
  EXPECT_EQ(a.fromTime, 100u);  // send call start
  EXPECT_EQ(a.toTime, 450u);    // recv call end
  EXPECT_EQ(a.bytes, 1024u);
}

TEST_F(ViewTest, WindowClipsSegments) {
  ViewOptions options;
  options.kind = ViewKind::kThreadActivity;
  options.window = {{150, 350}};
  const TimeSpaceModel m = build(options);
  for (const VizTimeline& r : m.rows) {
    for (const VizSegment& s : r.segments) {
      EXPECT_GE(s.start, 150u);
      EXPECT_LE(s.end, 350u);
    }
  }
  EXPECT_EQ(m.minTime, 150u);
  EXPECT_EQ(m.maxTime, 350u);
}

TEST_F(ViewTest, SystemThreadsHiddenByDefaultShownOnRequest) {
  ViewOptions options;
  options.kind = ViewKind::kThreadActivity;
  EXPECT_EQ(build(options).rows.size(), 3u);
  options.includeSystemThreads = true;
  EXPECT_EQ(build(options).rows.size(), 4u);
}

}  // namespace
}  // namespace ute
