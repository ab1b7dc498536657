// Allocation budgets of the per-record path (docs/PIPELINE.md): the
// simulator, convert, merge, statistics and the SVG renderer write into
// buffers they keep, so the heap allocations a stage makes do not grow
// with its events or records.
// The query path (docs/SERVER.md) is held to per-request budgets the
// same way: processRequest() answers a warm request with one allocation,
// its reply, and a frame decode or a metrics scan costs a fixed handful
// per frame.
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
#include "interval/field.h"
#include "interval/standard_profile.h"
#include "merge/merger.h"
#include "mpisim/mpi_runtime.h"
#include "server/protocol.h"
#include "sim/simulation.h"
#include "slog/slog_codec.h"
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

SimulationConfig goldenProgram(std::uint32_t iterations) {
  TestProgramOptions workload;
  workload.iterations = iterations;
  workload.nodes = 4;
  return testProgram(workload);
}

PipelineResult goldenRun(std::uint32_t iterations) {
  PipelineOptions options;
  options.dir = makeScratchDir("alloc_budget_" + std::to_string(iterations));
  options.name = "golden";
  options.convert.targetFrameBytes = kFrameBytes;
  options.merge.targetFrameBytes = kFrameBytes;
  options.slog.recordsPerFrame = 64;
  return runPipeline(goldenProgram(iterations), options);
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

TEST_F(AllocBudget, SimulationCutsRecordsWithoutAllocating) {
  // The event queue keeps actions in a reused slab and every record's
  // payload is built in a writer its cutter keeps, so the simulator's
  // allocations do not grow with the events it runs.
  const std::uint32_t iterations[2] = {30, 60};
  std::uint64_t events[2] = {0, 0};
  std::uint64_t allocations[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    SimulationConfig config = goldenProgram(iterations[i]);
    config.trace.filePrefix =
        makeScratchDir("alloc_budget_sim") + "/golden";
    allocations[i] = allocationsOf([&] {
      Simulation sim(std::move(config));
      MpiRuntime mpi(sim);
      sim.setMpiService(&mpi);
      sim.run();
      for (NodeId n = 0; n < 4; ++n) events[i] += sim.sessionStats(n).eventsCut;
    });
  }
  EXPECT_LE(marginal(allocations[0], allocations[1], events[0], events[1]),
            0.05);
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

TEST_F(AllocBudget, ColumnarEncodeWithWarmScratchAllocatesNothing) {
  // A 512-record frame of the long run's records, encoded again and
  // again through one scratch into one reused output buffer: once both
  // have seen the frame, an encode allocates nothing.
  SlogReader slog(long_->slogFile);
  constexpr std::size_t kRecords = 512;
  SlogFrameData frame;
  for (std::size_t f = 0; f < slog.frameIndex().size(); ++f) {
    const SlogFramePtr part = slog.readFrame(f);
    for (const SlogInterval& r : part->intervals) {
      if (frame.intervals.size() < kRecords) frame.intervals.push_back(r);
    }
  }
  ASSERT_EQ(frame.intervals.size(), kRecords);
  // One record in eight becomes an arrow made from an interval's fields,
  // so the arrow columns are encoded too.
  for (std::size_t i = 0; i < kRecords / 8; ++i) {
    const SlogInterval& r = frame.intervals[i];
    frame.arrows.push_back({r.node, r.thread, r.start, r.node, r.thread,
                            r.end(), static_cast<std::uint32_t>(r.dura)});
  }
  frame.intervals.resize(kRecords - frame.arrows.size());
  ColumnarScratch scratch;
  std::vector<std::uint8_t> out;
  encodeColumnarFrame(frame.intervals, frame.arrows, out, scratch);
  const std::vector<std::uint8_t> first = out;
  for (int pass = 1; pass <= 8; ++pass) {
    out.clear();
    EXPECT_EQ(allocationsOf([&] {
                encodeColumnarFrame(frame.intervals, frame.arrows, out,
                                    scratch);
              }),
              0u)
        << "pass " << pass;
    EXPECT_EQ(out, first) << "pass " << pass;
  }
}

ServiceOptions oneWorker() {
  ServiceOptions options;
  options.workers = 1;
  return options;
}

TEST_F(AllocBudget, FirstMetricsPerFrame) {
  // A first metrics request on a cold service reads every frame through
  // the frame cache and accumulates it into the store.
  const auto firstMetrics = [](const std::string& slog) {
    TraceService service({slog}, oneWorker());
    const ByteWriter request = encodeMetricsRequest(0, 240);
    return allocationsOf([&] { processRequest(service, request.view()); });
  };
  const auto frames = [](const std::string& slog) {
    return static_cast<std::uint64_t>(SlogReader(slog).frameIndex().size());
  };
  EXPECT_LE(marginal(firstMetrics(golden_->slogFile),
                     firstMetrics(long_->slogFile), frames(golden_->slogFile),
                     frames(long_->slogFile)),
            6.0);
}

// --- query path on the committed golden SLOG ------------------------------

/// Allocations of a warm window, frame-at, summary or metrics request:
/// the reply vector, plus one to spare.
constexpr std::uint64_t kWarmRequestAllocs = 2;
/// Extra allocations of a frame-cache miss: the shared frame, its two
/// record vectors, and the cache's list and index nodes.
constexpr std::uint64_t kAllocsPerMiss = 5;

std::string goldenSlog() {
  return std::string(UTE_TEST_DATA_DIR) + "/golden_v2.slog";
}

class QueryAllocBudget : public ::testing::TestWithParam<FrameEncoding> {
 protected:
  ConnectionContext context() const {
    ConnectionContext ctx;
    ctx.frameEncoding = GetParam();
    return ctx;
  }
};

TEST_P(QueryAllocBudget, WarmRequestAllocatesOnlyItsReply) {
  TraceService service({goldenSlog()}, oneWorker());
  ConnectionContext ctx = context();
  const auto window = [](Tick t0, Tick t1) {
    WindowQuery q;
    q.t0 = t0;
    q.t1 = t1;
    return q;
  };
  std::vector<std::pair<std::string, ByteWriter>> requests;
  requests.emplace_back("window whole run",
                        encodeWindowRequest(0, window(0, 300 * kMs)));
  requests.emplace_back("window 40-90ms",
                        encodeWindowRequest(0, window(40 * kMs, 90 * kMs)));
  WindowQuery filtered = window(10 * kMs, 200 * kMs);
  filtered.node = 1;
  filtered.thread = 0;
  filtered.states = {static_cast<std::uint32_t>(kRunningState), 4, 5};
  requests.emplace_back("window filtered", encodeWindowRequest(0, filtered));
  requests.emplace_back("frame-at", encodeFrameAtRequest(0, 75 * kMs));
  requests.emplace_back("summary whole run",
                        encodeSummaryRequest(0, 0, 300 * kMs));
  requests.emplace_back("summary 40-60ms",
                        encodeSummaryRequest(0, 40 * kMs, 60 * kMs));
  requests.emplace_back("metrics", encodeMetricsRequest(0, 60));
  for (const auto& [name, request] : requests) {
    processRequest(service, request.view(), ctx);  // fill cache, scratch
  }
  for (const auto& [name, request] : requests) {
    EXPECT_LE(allocationsOf([&] {
                processRequest(service, request.view(), ctx);
              }),
              kWarmRequestAllocs)
        << name;
  }
}

TEST_P(QueryAllocBudget, FrameDecodePerMiss) {
  // A one-byte cache keeps only the frame it loaded last, so asking for
  // each frame in turn misses every time.
  ServiceOptions options = oneWorker();
  options.cacheBytes = 1;
  options.cacheShards = 1;
  TraceService service({goldenSlog()}, options);
  ConnectionContext ctx = context();
  const SlogReader reader(goldenSlog());
  std::vector<ByteWriter> requests;
  for (const SlogFrameIndexEntry& e : reader.frameIndex()) {
    requests.push_back(encodeFrameAtRequest(0, e.timeStart + 1));
  }
  ASSERT_GE(requests.size(), 4u);
  for (const ByteWriter& r : requests) processRequest(service, r.view(), ctx);
  const std::uint64_t missesBefore = service.cache().stats().misses;
  const std::uint64_t allocations = allocationsOf([&] {
    for (const ByteWriter& r : requests) {
      processRequest(service, r.view(), ctx);
    }
  });
  ASSERT_EQ(service.cache().stats().misses - missesBefore, requests.size());
  EXPECT_LE(allocations,
            requests.size() * (kWarmRequestAllocs + kAllocsPerMiss));
}

INSTANTIATE_TEST_SUITE_P(Encodings, QueryAllocBudget,
                         ::testing::Values(FrameEncoding::kRow,
                                           FrameEncoding::kColumnar),
                         [](const auto& p) {
                           return std::string(frameEncodingName(p.param));
                         });

}  // namespace
}  // namespace ute
