// Pipeline concurrency stress (run under -DUTE_SANITIZE=thread via
// `ctest -L stress`): hammers the Channel and the fork-join parallelFor,
// and repeats the parallel convert+merge pipeline checking every run is
// byte-identical to the sequential golden output.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/channel.h"
#include "support/file_io.h"
#include "support/parallel_for.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute {
namespace {

TEST(PipelineStress, ChannelHammer) {
  for (int round = 0; round < 5; ++round) {
    Channel<int> ch(3);
    std::atomic<long> sum{0};
    std::atomic<int> received{0};
    std::vector<std::thread> threads;
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 500;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([p, &ch] {
        for (int i = 0; i < kPerProducer; ++i) {
          ASSERT_TRUE(ch.send(p * kPerProducer + i));
        }
      });
    }
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (const auto v = ch.receive()) {
          sum.fetch_add(*v);
          received.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    ch.close();
    for (auto& t : consumers) t.join();
    constexpr int kTotal = kProducers * kPerProducer;
    EXPECT_EQ(received.load(), kTotal);
    EXPECT_EQ(sum.load(), static_cast<long>(kTotal) * (kTotal - 1) / 2);
  }
}

TEST(PipelineStress, ParallelForStorm) {
  // Many tiny indices over repeated rounds, one of them throwing per
  // round: every call must join all its threads, rethrow that one
  // exception and leave nothing running into the next round.
  constexpr std::size_t kIndices = 2000;
  for (int round = 0; round < 50; ++round) {
    const std::size_t throwAt = (static_cast<std::size_t>(round) * 37) %
                                kIndices;
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(parallelFor(4, kIndices,
                             [&](std::size_t i) {
                               if (i == throwAt) {
                                 throw std::runtime_error("round failure");
                               }
                               ran.fetch_add(1);
                             }),
                 std::runtime_error);
    EXPECT_LT(ran.load(), kIndices);

    std::atomic<long> roundSum{0};
    parallelFor(4, kIndices, [&roundSum](std::size_t i) {
      roundSum.fetch_add(static_cast<long>(i));
    });
    EXPECT_EQ(roundSum.load(),
              static_cast<long>(kIndices) * (kIndices - 1) / 2);
  }
}

TEST(PipelineStress, RepeatedParallelRunsMatchGolden) {
  TestProgramOptions workload;
  workload.iterations = 15;
  workload.nodes = 4;

  PipelineOptions golden;
  golden.dir = makeScratchDir("stress_golden");
  golden.name = "sg";
  golden.convert.targetFrameBytes = 2048;
  golden.merge.targetFrameBytes = 2048;
  const PipelineResult seq = runPipeline(testProgram(workload), golden);
  const auto mergedGolden = readWholeFile(seq.mergedFile);
  const auto slogGolden = readWholeFile(seq.slogFile);

  for (int round = 0; round < 3; ++round) {
    PipelineOptions options = golden;
    options.dir = makeScratchDir("stress_par_" + std::to_string(round));
    options.convert.jobs = 4;
    options.merge.jobs = 4;
    const PipelineResult par = runPipeline(testProgram(workload), options);
    for (std::size_t i = 0; i < par.intervalFiles.size(); ++i) {
      ASSERT_EQ(readWholeFile(par.intervalFiles[i]),
                readWholeFile(seq.intervalFiles[i]))
          << "round " << round << " interval file " << i;
    }
    ASSERT_EQ(readWholeFile(par.mergedFile), mergedGolden)
        << "round " << round << " merged file";
    ASSERT_EQ(readWholeFile(par.slogFile), slogGolden)
        << "round " << round << " SLOG file";
  }
}

}  // namespace
}  // namespace ute
