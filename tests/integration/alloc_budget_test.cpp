// Allocation budgets of the per-record path (docs/PIPELINE.md): convert,
// merge, statistics and the SVG renderer write into buffers they keep,
// so the heap allocations a stage makes do not grow with its records.
// This binary counts every allocation through its own global operator
// new. It runs the golden 4-node test program (the trace the parallel
// pipeline and metrics oracle tests use) at --jobs 1, and the same
// program at twice the iterations: the difference between the two is
// the steady-state cost per event or record, free of the fixed cost of
// opening files and building tables. The budgets are exact counts, so a
// regression fails here before any benchmark run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "convert/converter.h"
#include "interval/file_reader.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "slog/slog_reader.h"
#include "stats/engine.h"
#include "viz/svg_render.h"
#include "viz/timeline_model.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocations{0};

}  // namespace

namespace {

void* countedMalloc(std::size_t n) noexcept {
  if (gCounting.load(std::memory_order_relaxed)) {
    gAllocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

// Every replaceable form that pairs with the deletes below is replaced,
// nothrow ones included, so no block crosses to another allocator (a
// sanitizer runtime supplies its own).
void* operator new(std::size_t n) {
  if (void* p = countedMalloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedMalloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return countedMalloc(n);
}
// Out of line, so the compiler never sees free() applied to a pointer
// from operator new at an inlined call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

namespace ute {
namespace {

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocationsOf(Fn&& fn) {
  const std::uint64_t before = gAllocations.load();
  gCounting.store(true);
  fn();
  gCounting.store(false);
  return gAllocations.load() - before;
}

constexpr std::size_t kFrameBytes = 2048;  // the golden run's frames

PipelineResult goldenRun(std::uint32_t iterations) {
  TestProgramOptions workload;
  workload.iterations = iterations;
  workload.nodes = 4;
  PipelineOptions options;
  options.dir = makeScratchDir("alloc_budget_" + std::to_string(iterations));
  options.name = "golden";
  options.convert.targetFrameBytes = kFrameBytes;
  options.merge.targetFrameBytes = kFrameBytes;
  options.slog.recordsPerFrame = 64;
  return runPipeline(testProgram(workload), options);
}

/// Allocations per unit of work at steady state: the extra allocations
/// of the long run over the golden one, per extra unit.
double marginal(std::uint64_t shortAllocs, std::uint64_t longAllocs,
                std::uint64_t shortUnits, std::uint64_t longUnits) {
  EXPECT_GT(longUnits, shortUnits);
  const double extra = static_cast<double>(longAllocs) -
                       static_cast<double>(shortAllocs);
  return extra / static_cast<double>(longUnits - shortUnits);
}

class AllocBudget : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    golden_ = new PipelineResult(goldenRun(30));
    long_ = new PipelineResult(goldenRun(60));
  }
  static void TearDownTestSuite() {
    delete golden_;
    delete long_;
  }

  static PipelineResult* golden_;
  static PipelineResult* long_;
};

PipelineResult* AllocBudget::golden_ = nullptr;
PipelineResult* AllocBudget::long_ = nullptr;

std::uint64_t convertAllocations(const PipelineResult& run) {
  ConvertOptions options;
  options.jobs = 1;
  options.targetFrameBytes = kFrameBytes;
  return allocationsOf([&] {
    convertRun(run.rawFiles, run.mergedFile + ".reconvert", options);
  });
}

TEST_F(AllocBudget, ConvertPerEvent) {
  const double perEvent =
      marginal(convertAllocations(*golden_), convertAllocations(*long_),
               golden_->rawEvents, long_->rawEvents);
  EXPECT_LE(perEvent, 0.05);
}

TEST_F(AllocBudget, MergeWithoutSinkPerRecord) {
  const Profile profile = makeStandardProfile();
  std::uint64_t records[2] = {0, 0};
  std::uint64_t allocations[2] = {0, 0};
  const PipelineResult* runs[2] = {golden_, long_};
  for (int i = 0; i < 2; ++i) {
    MergeOptions options;
    options.jobs = 1;
    options.targetFrameBytes = kFrameBytes;
    allocations[i] = allocationsOf([&] {
      IntervalMerger merger(runs[i]->intervalFiles, profile, options);
      records[i] =
          merger.mergeTo(runs[i]->mergedFile + ".remerged").recordsOut;
    });
  }
  EXPECT_LE(marginal(allocations[0], allocations[1], records[0], records[1]),
            0.1);
}

TEST_F(AllocBudget, StatsPerRecord) {
  // Feeding the merged file twice doubles the records but adds no group
  // and no table row, so the difference is the per-record cost alone.
  const Profile profile = makeStandardProfile();
  IntervalFileReader merged(golden_->mergedFile);
  StatsEngine engine(profile);
  const std::string program = predefinedTablesProgram();
  const std::uint64_t once =
      allocationsOf([&] { engine.runProgram(program, merged); });
  const std::uint64_t twice = allocationsOf(
      [&] { engine.runProgram(program, {&merged, &merged}); });
  const std::uint64_t records = merged.header().totalRecords;
  EXPECT_LE(marginal(once, twice, records, 2 * records), 0.01);
}

TEST_F(AllocBudget, RenderSvgPerView) {
  // Rendering appends in place into a document that grows by doubling,
  // so a view costs a few dozen allocations whatever its segment count.
  SlogReader slog(long_->slogFile);
  std::size_t views = 0;
  for (const auto& frame : slog.frameIndex()) {
    const TimeSpaceModel view =
        buildSlogWindowView(slog, frame.timeStart, frame.timeEnd);
    EXPECT_LE(allocationsOf([&] { renderSvg(view); }), 32u)
        << "frame at " << frame.timeStart;
    ++views;
  }
  EXPECT_GT(views, 10u);
}

}  // namespace
}  // namespace ute
