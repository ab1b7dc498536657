// Statistics engine tests over a hand-built interval file with exactly
// known contents.
#include "stats/engine.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "support/file_io.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

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

/// File contents (all on node 0 unless said otherwise; times in ms):
///   Running  complete  [0, 1000)      thread 0  cpu 0
///   Send     complete  [1000, 1100)   thread 0  cpu 0   bytes 100
///   Send     complete  [2000, 2300)   thread 1  cpu 1   bytes 200
///   Recv     begin     [3000, 3100)   thread 1  cpu 1
///   Recv     end       [3500, 3600)   thread 1  cpu 0   bytes 300
///   marker "phase" complete [4000, 5000) thread 0 cpu 0  (id 4)
///   Running  complete  [5000, 8000)   node 1, thread 0, cpu 0
class StatsEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = tempPath("stats_engine.uti");
    IntervalFileOptions options;
    options.profileVersion = kStandardProfileVersion;
    options.fieldSelectionMask = kNodeFileMask;
    std::vector<ThreadEntry> threads = {
        {0, 1000, 10000, 0, 0, ThreadType::kMpi},
        {0, 1000, 10001, 0, 1, ThreadType::kUser},
        {1, 1001, 10002, 1, 0, ThreadType::kMpi},
    };
    IntervalFileWriter w(path_, options, threads);
    w.addMarker(4, "phase");

    const auto add = [&](EventType event, Bebits bebits, Tick startMs,
                         Tick duraMs, std::int32_t cpu, NodeId node,
                         LogicalThreadId thread, const ByteWriter& extra) {
      ByteWriter body;
      encodeRecordBody(body, makeIntervalType(event, bebits), startMs * kMs,
                       duraMs * kMs, cpu, node, thread, extra.view());
      w.addRecord(body.view());
    };
    const auto sendArgs = [](std::uint32_t bytes, std::uint32_t seq) {
      ByteWriter w2;
      w2.i32(1);
      w2.i32(0);
      w2.u32(bytes);
      w2.u32(seq);
      w2.i32(0);
      return w2;
    };

    add(kRunningState, Bebits::kComplete, 0, 1000, 0, 0, 0, {});
    add(EventType::kMpiSend, Bebits::kComplete, 1000, 100, 0, 0, 0,
        sendArgs(100, 1));
    add(EventType::kMpiSend, Bebits::kComplete, 2000, 300, 1, 0, 1,
        sendArgs(200, 2));
    {
      ByteWriter recvBegin;
      recvBegin.i32(-1);
      recvBegin.i32(0);
      recvBegin.i32(0);
      add(EventType::kMpiRecv, Bebits::kBegin, 3000, 100, 1, 0, 1, recvBegin);
    }
    {
      ByteWriter recvEnd;
      recvEnd.i32(0);
      recvEnd.i32(0);
      recvEnd.u32(300);
      recvEnd.u32(3);
      add(EventType::kMpiRecv, Bebits::kEnd, 3500, 100, 0, 0, 1, recvEnd);
    }
    {
      ByteWriter marker;
      marker.u32(4);
      marker.u64(0xaaa);
      marker.u64(0xbbb);
      add(EventType::kUserMarker, Bebits::kComplete, 4000, 1000, 0, 0, 0,
          marker);
    }
    add(kRunningState, Bebits::kComplete, 5000, 3000, 0, 1, 0, {});
    w.close();
  }

  std::vector<StatsTable> run(const std::string& program) {
    const Profile profile = makeStandardProfile();
    IntervalFileReader file(path_);
    StatsEngine engine(profile);
    return engine.runProgram(program, file);
  }

  std::string path_;
};

TEST_F(StatsEngineTest, PaperExampleAveragesDurations) {
  // Intervals starting in the first 2 seconds, averaged per (node, cpu):
  // only Running [0,1s) and Send [1s,1.1s) qualify -> one group (0,0).
  const auto tables = run(
      "table name=sample condition=(start < 2) "
      "x=(\"node\", node) x=(\"processor\", cpu) "
      "y=(\"avg(duration)\", dura, avg)");
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_EQ(tables[0].rows.size(), 1u);
  EXPECT_EQ(tables[0].cell(0, "node"), "0");
  EXPECT_EQ(tables[0].cell(0, "processor"), "0");
  // avg(1.0 s, 0.1 s) = 0.55 s
  EXPECT_EQ(tables[0].cell(0, "avg(duration)"), "0.550000");
}

TEST_F(StatsEngineTest, SumAndCountAggregate) {
  const auto tables = run(
      "table name=t condition=(eventtype == 66) "
      "x=(\"node\", node) "
      "y=(\"total\", msgSizeSent, sum) y=(\"n\", dura, count)");
  ASSERT_EQ(tables[0].rows.size(), 1u);
  EXPECT_EQ(tables[0].cell(0, "total"), "300");  // 100 + 200
  EXPECT_EQ(tables[0].cell(0, "n"), "2");
}

TEST_F(StatsEngineTest, MinMaxAggregate) {
  const auto tables = run(
      "table name=t x=(\"node\", node) "
      "y=(\"lo\", dura, min) y=(\"hi\", dura, max)");
  // Node 0 durations: 1, 0.1, 0.3, 0.1, 0.1, 1 s.
  for (const auto& row : tables[0].rows) {
    if (row[0] == "0") {
      EXPECT_EQ(tables[0].cell(0, "lo"), "0.100000");
      EXPECT_EQ(tables[0].cell(0, "hi"), "1");
    }
  }
}

TEST_F(StatsEngineTest, StateNamesIncludeMarkerStrings) {
  const auto tables = run(
      "table name=t x=(\"state\", state) y=(\"n\", dura, count)");
  std::map<std::string, std::string> counts;
  for (const auto& row : tables[0].rows) counts[row[0]] = row[1];
  EXPECT_EQ(counts.at("Running"), "2");
  EXPECT_EQ(counts.at("MPI_Send"), "2");
  EXPECT_EQ(counts.at("MPI_Recv"), "2");
  EXPECT_EQ(counts.at("phase"), "1");  // marker string, not "UserMarker"
}

TEST_F(StatsEngineTest, FirstPieceCountsCallsOnce) {
  // MPI_Recv has two pieces; counting first pieces counts the call once.
  const auto tables = run(
      "table name=t condition=(eventtype == 67 && firstpiece == 1) "
      "x=(\"node\", node) y=(\"calls\", dura, count)");
  ASSERT_EQ(tables[0].rows.size(), 1u);
  EXPECT_EQ(tables[0].cell(0, "calls"), "1");
}

TEST_F(StatsEngineTest, TaskFieldComesFromThreadTable) {
  const auto tables = run(
      "table name=t x=(\"task\", task) y=(\"sec\", dura, sum)");
  ASSERT_EQ(tables[0].rows.size(), 2u);
  EXPECT_EQ(tables[0].rows[0][0], "0");
  EXPECT_EQ(tables[0].rows[1][0], "1");
  EXPECT_EQ(tables[0].cell(1, "sec"), "3");  // node-1 Running
}

TEST_F(StatsEngineTest, TimebinSplitsTheRun) {
  // Run spans [0, 8 s): with 4 bins, bin width 2 s.
  const auto tables = run(
      "table name=t x=(\"bin\", timebin(4)) y=(\"n\", dura, count)");
  std::map<std::string, std::string> byBin;
  for (const auto& row : tables[0].rows) byBin[row[0]] = row[1];
  EXPECT_EQ(byBin.at("0"), "2");  // Running@0, Send@1
  EXPECT_EQ(byBin.at("1"), "3");  // Send@2, Recv@3, Recv@3.5
  EXPECT_EQ(byBin.at("2"), "2");  // marker@4, Running@5
  EXPECT_EQ(byBin.count("3"), 0u);
}

TEST_F(StatsEngineTest, MissingFieldSkipsRecordForThatTable) {
  // msgSizeSent exists only on send first-pieces; the x grouping by it
  // silently skips everything else.
  const auto tables = run(
      "table name=t x=(\"sz\", msgSizeSent) y=(\"n\", dura, count)");
  ASSERT_EQ(tables[0].rows.size(), 2u);
  EXPECT_EQ(tables[0].rows[0][0], "100");
  EXPECT_EQ(tables[0].rows[1][0], "200");
}

TEST_F(StatsEngineTest, ArithmeticAndLogicInConditions) {
  const auto tables = run(
      "table name=t condition=(dura * 1000 >= 300 && node == 0 || "
      "state == \"phase\") "
      "x=(\"node\", node) y=(\"n\", dura, count)");
  // dura >= 0.3s on node 0: Running(1s), Send(0.3s), marker(1s) -> 3.
  ASSERT_EQ(tables[0].rows.size(), 1u);
  EXPECT_EQ(tables[0].cell(0, "n"), "3");
}

TEST_F(StatsEngineTest, MultipleTablesOnePass) {
  const auto tables = run(
      "table name=a x=(\"node\", node) y=(\"n\", dura, count) "
      "table name=b x=(\"cpu\", cpu) y=(\"n\", dura, count)");
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].name, "a");
  EXPECT_EQ(tables[1].name, "b");
  EXPECT_EQ(tables[0].rows.size(), 2u);  // nodes 0, 1
  EXPECT_EQ(tables[1].rows.size(), 2u);  // cpus 0, 1
}

TEST_F(StatsEngineTest, TsvSerialization) {
  const auto tables = run(
      "table name=t x=(\"node\", node) y=(\"n\", dura, count)");
  const std::string tsv = tables[0].tsv();
  EXPECT_EQ(tsv.substr(0, 7), "node\tn\n");
  EXPECT_NE(tsv.find("0\t6\n"), std::string::npos);
  EXPECT_NE(tsv.find("1\t1\n"), std::string::npos);
}

TEST_F(StatsEngineTest, PredefinedTablesRun) {
  const auto tables = run(predefinedTablesProgram());
  ASSERT_EQ(tables.size(), 5u);
  EXPECT_EQ(tables[0].name, "interesting_by_node_bin");
  // Fig 6 table: non-Running, non-marker, non-clock intervals only.
  double interesting = 0;
  for (const auto& row : tables[0].rows) {
    interesting += std::stod(row[2]);
  }
  EXPECT_NEAR(interesting, 0.1 + 0.3 + 0.1 + 0.1, 1e-9);
}

// The predefined tables on the golden 4-node pipeline trace (the one the
// metrics oracle and the parallel-pipeline tests use), pinned byte for
// byte: grouping, row order and number formatting must not drift.
TEST(StatsEngineGolden, PredefinedTablesMatchPinnedTsv) {
  TestProgramOptions workload;
  workload.iterations = 30;
  workload.nodes = 4;
  PipelineOptions options;
  options.dir = makeScratchDir("stats_golden");
  options.name = "golden";
  options.convert.targetFrameBytes = 2048;
  options.merge.targetFrameBytes = 2048;
  const PipelineResult run = runPipeline(testProgram(workload), options);

  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(run.mergedFile);
  StatsEngine engine(profile);
  std::string all;
  for (const StatsTable& t :
       engine.runProgram(predefinedTablesProgram(), merged)) {
    all += "# " + t.name + "\n" + t.tsv();
  }
  const std::vector<std::uint8_t> pinned = readWholeFile(
      std::string(UTE_TEST_DATA_DIR) + "/predefined_stats_golden.tsv");
  EXPECT_EQ(all, std::string(pinned.begin(), pinned.end()));
}

}  // namespace
}  // namespace ute
