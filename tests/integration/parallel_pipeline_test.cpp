// Determinism tests for the parallel pipeline: seeded simulated runs
// converted and merged at several --jobs values, with mapped and with
// stdio reads, must produce byte-identical artifacts to the sequential
// --jobs 1 reference — per-node interval files, the merged interval file
// (including its pseudo-record continuation intervals), and the SLOG
// file.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>

#include "convert/converter.h"
#include "support/file_io.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute {
namespace {

PipelineResult runWithJobs(SimulationConfig config, const std::string& dir,
                           int jobs) {
  PipelineOptions options;
  options.dir = makeScratchDir(dir);
  options.name = "par";
  options.convert.jobs = jobs;
  options.merge.jobs = jobs;
  // Small frames force many frame boundaries, so the merged file carries
  // pseudo-record continuation intervals — the hardest case to keep
  // byte-identical under parallelism.
  options.convert.targetFrameBytes = 2048;
  options.merge.targetFrameBytes = 2048;
  return runPipeline(std::move(config), options);
}

SimulationConfig fourNodeTestProgram(std::uint64_t seed) {
  TestProgramOptions workload;
  workload.iterations = 30;
  workload.nodes = 4;
  workload.seed = seed;
  return testProgram(workload);
}

/// Sets UTE_NO_MMAP=1 for its lifetime, so every file the pipeline reads
/// goes through the stdio fallback; restores the previous value after.
class NoMmapScope {
 public:
  NoMmapScope() {
    if (const char* v = std::getenv("UTE_NO_MMAP")) previous_ = v;
    setenv("UTE_NO_MMAP", "1", 1);
  }
  ~NoMmapScope() {
    if (previous_) {
      setenv("UTE_NO_MMAP", previous_->c_str(), 1);
    } else {
      unsetenv("UTE_NO_MMAP");
    }
  }
  NoMmapScope(const NoMmapScope&) = delete;
  NoMmapScope& operator=(const NoMmapScope&) = delete;

 private:
  std::optional<std::string> previous_;
};

/// Every artifact of one run, in a fixed order: the per-node interval
/// files, then the merged interval file, then the SLOG file.
std::vector<std::vector<std::uint8_t>> artifactBytes(
    const PipelineResult& run) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::string& f : run.intervalFiles) {
    out.push_back(readWholeFile(f));
  }
  out.push_back(readWholeFile(run.mergedFile));
  out.push_back(readWholeFile(run.slogFile));
  return out;
}

TEST(ParallelPipeline, JobsFourMatchesJobsOneByteForByte) {
  // A seeded sweep: four 4-node testProgram seeds and one sppm run, each
  // at --jobs 2, 4 and 0 (one per hardware thread), with mapped and with
  // stdio reads, against the mapped --jobs 1 bytes.
  struct Case {
    std::string label;
    SimulationConfig config;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cases.push_back({"testProgram seed " + std::to_string(seed),
                     fourNodeTestProgram(seed)});
  }
  SppmOptions sppmOptions;
  sppmOptions.timesteps = 4;
  cases.push_back({"sppm", sppm(sppmOptions)});

  for (const Case& c : cases) {
    const PipelineResult seq = runWithJobs(c.config, "par_pipe_seq", 1);
    // The scenario must actually exercise pseudo-record injection.
    EXPECT_GT(seq.merge.pseudoRecords, 0u) << c.label;
    ASSERT_EQ(seq.intervalFiles.size(), 4u) << c.label;
    const auto reference = artifactBytes(seq);

    for (const bool noMmap : {false, true}) {
      for (const int jobs : {2, 4, 0}) {
        const std::string what = c.label + ", --jobs " +
                                 std::to_string(jobs) +
                                 (noMmap ? ", UTE_NO_MMAP=1" : ", mmap");
        std::optional<NoMmapScope> stdio;
        if (noMmap) stdio.emplace();
        const PipelineResult par =
            runWithJobs(c.config, "par_pipe_par", jobs);
        EXPECT_EQ(seq.rawEvents, par.rawEvents) << what;
        EXPECT_EQ(seq.intervalRecords, par.intervalRecords) << what;
        EXPECT_EQ(seq.merge.recordsOut, par.merge.recordsOut) << what;
        EXPECT_EQ(seq.merge.pseudoRecords, par.merge.pseudoRecords) << what;
        const auto got = artifactBytes(par);
        ASSERT_EQ(got.size(), reference.size()) << what;
        for (std::size_t i = 0; i < got.size(); ++i) {
          // EXPECT_TRUE, not EXPECT_EQ: a failure must not print the
          // whole file.
          EXPECT_TRUE(got[i] == reference[i])
              << what << ": artifact " << i << " of " << got.size()
              << " (interval files, merged, SLOG) differs from --jobs 1";
        }
      }
    }
  }
}

TEST(ParallelPipeline, ConvertRunAloneIsDeterministicAcrossJobCounts) {
  // Drive convertRun directly on the raw files of a sequential run so a
  // failure localizes to the convert stage (marker preassignment order).
  const PipelineResult seq =
      runWithJobs(fourNodeTestProgram(42), "par_conv_seq", 1);
  ConvertOptions options;
  options.targetFrameBytes = 2048;
  options.jobs = 0;  // one worker per hardware thread
  const std::string prefix = makeScratchDir("par_conv_par") + "/par";
  const auto results = convertRun(seq.rawFiles, prefix, options);
  ASSERT_EQ(results.size(), seq.intervalFiles.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(readWholeFile(seq.intervalFiles[i]),
              readWholeFile(results[i].outputPath))
        << "interval file " << i << " differs";
  }
}

}  // namespace
}  // namespace ute
