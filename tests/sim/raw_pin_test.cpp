// Byte pins of the simulator's raw trace output. The Determinism tests
// compare two runs of one build, so a change that moved every byte of
// both runs alike would pass them; these pin each raw `.utr` file cut
// by four small runs to FNV-1a checksums recorded before the event
// queue and the payload builders were rewritten for speed:
//   - the golden 4-node testProgram (send/recv, allreduce, nested
//     markers, preemption across 16 threads on 8 CPUs);
//   - sppm (8-way nodes, sleeps, thread migration);
//   - flash (bcast, reduce, barrier, page faults, checkpoint I/O);
//   - a hand-built program for what the workloads leave out: isend,
//     irecv and wait, alltoall, file reads, trace off/on, a sleep long
//     enough to wrap the 32-bit timestamp, and delayed clock-daemon
//     records.
// Regenerate (only with an intentional change to the simulated run):
//   UTE_REGEN_GOLDEN=1 ./sim_tests --gtest_filter='RawPins.*'
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "mpisim/mpi_runtime.h"
#include "sim/simulation.h"
#include "support/file_io.h"
#include "trace/reader.h"
#include "workloads/pipeline.h"
#include "workloads/workloads.h"

namespace ute {
namespace {

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

struct RawRun {
  std::vector<std::string> files;
  std::uint64_t wrapRecords = 0;
  std::uint64_t eventsSuppressed = 0;
};

/// Simulates `config` in a fresh scratch directory.
RawRun simulate(SimulationConfig config, const std::string& name) {
  config.trace.filePrefix = makeScratchDir("raw_pin_" + name) + "/" + name;
  Simulation sim(std::move(config));
  MpiRuntime mpi(sim);
  sim.setMpiService(&mpi);
  sim.run();
  RawRun run;
  run.files = sim.traceFilePaths();
  for (NodeId n = 0; n < static_cast<NodeId>(run.files.size()); ++n) {
    run.wrapRecords += sim.sessionStats(n).wrapRecords;
    run.eventsSuppressed += sim.sessionStats(n).eventsSuppressed;
  }
  return run;
}

/// The checksum of each node's raw trace file.
std::vector<std::uint64_t> checksums(const RawRun& run) {
  std::vector<std::uint64_t> out;
  for (const std::string& path : run.files) {
    out.push_back(fnv1a(readWholeFile(path)));
  }
  return out;
}

void checkPins(const std::vector<std::uint64_t>& got,
               const std::vector<std::uint64_t>& pins,
               const std::string& name) {
  if (std::getenv("UTE_REGEN_GOLDEN") != nullptr) {
    std::printf("  // %s\n", name.c_str());
    for (std::uint64_t h : got) {
      std::printf("  %lluull,\n", static_cast<unsigned long long>(h));
    }
    GTEST_SKIP() << "regeneration run: update the pinned checksums";
  }
  ASSERT_EQ(got.size(), pins.size()) << name;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], pins[i]) << name << " node " << i;
  }
}

/// Every MPI and system activity the workloads do not reach.
SimulationConfig coverageProgram() {
  SimulationConfig config;
  for (int n = 0; n < 2; ++n) {
    NodeConfig node;
    node.cpuCount = 2;
    node.clock = workloadClock(n);
    config.nodes.push_back(node);
  }
  constexpr int kTasks = 4;
  for (int t = 0; t < kTasks; ++t) {
    ProcessConfig proc;
    proc.node = t % 2;
    const TaskId next = (t + 1) % kTasks;
    const TaskId prev = (t + kTasks - 1) % kTasks;
    ProgramBuilder b;
    b.mpiInit();
    b.loop(6);
    b.markerBegin("halo");
    const std::int32_t recvSlot = b.irecv(prev, 3);
    const std::int32_t sendSlot = b.isend(next, 3, 8192 + 512 * t);
    b.compute(40 * kUs);
    b.wait(sendSlot);
    b.wait(recvSlot);
    b.markerEnd("halo");
    b.alltoall(1024);
    b.endLoop();
    b.ioRead(64 * 1024);
    b.traceOff();
    b.compute(300 * kUs);
    b.barrier();
    b.traceOn();
    // Past 2^32 ns of local time: the session cuts a wrap record.
    b.sleep(5 * kSec);
    if (t % 2 == 0) {
      b.send(prev, 9, 256);
      b.recv(kAnySource, kAnyTag);
    } else {
      b.recv(kAnySource, kAnyTag);
      b.send(prev, 9, 256);
    }
    b.mpiFinalize();
    ThreadConfig mpiThread;
    mpiThread.program = b.build();
    mpiThread.type = ThreadType::kMpi;
    proc.threads.push_back(std::move(mpiThread));

    ProgramBuilder w;
    w.loop(10);
    w.compute(120 * kUs);
    w.sleep(50 * kUs);
    w.endLoop();
    ThreadConfig worker;
    worker.program = w.build();
    proc.threads.push_back(std::move(worker));
    config.processes.push_back(std::move(proc));
  }
  config.clockDaemon.periodNs = 1 * kSec;
  config.clockDaemon.outlierChance = 0.5;
  config.costs.pageFaultChance = 0.05;
  config.seed = 5;
  return config;
}

TEST(RawPins, GoldenTestProgram) {
  TestProgramOptions workload;
  workload.iterations = 30;
  workload.nodes = 4;
  checkPins(checksums(simulate(testProgram(workload), "golden")),
            {
                7698761065633525899ull,
                230822422255318453ull,
                97781264434849143ull,
                12366667614690573413ull,
            },
            "golden testProgram");
}

TEST(RawPins, Sppm) {
  SppmOptions workload;
  workload.timesteps = 4;
  checkPins(checksums(simulate(sppm(workload), "sppm")),
            {
                16028304874895326684ull,
                2684254144613854385ull,
                16642240899575610371ull,
                8913443090660987113ull,
            },
            "sppm");
}

TEST(RawPins, Flash) {
  FlashOptions workload;
  workload.initIterations = 8;
  workload.evolveIterations = 6;
  workload.quietComputeNs = 4 * kMs;
  checkPins(checksums(simulate(flash(workload), "flash")),
            {
                1694852009077627755ull,
                3476572030584579863ull,
            },
            "flash");
}

TEST(RawPins, NonblockingIoAndTraceControl) {
  const RawRun run = simulate(coverageProgram(), "coverage");
  // The program reaches what it is here for.
  EXPECT_GT(run.wrapRecords, 0u);
  EXPECT_GT(run.eventsSuppressed, 0u);
  std::set<EventType> types;
  for (const std::string& path : run.files) {
    TraceFileReader reader(path);
    while (const auto ev = reader.next()) types.insert(ev->type);
  }
  for (EventType type :
       {EventType::kMpiIsend, EventType::kMpiIrecv, EventType::kMpiWait,
        EventType::kMpiAlltoall, EventType::kIoRead, EventType::kPageFault}) {
    EXPECT_TRUE(types.count(type)) << eventTypeName(type);
  }
  checkPins(checksums(run),
            {
                8086924595242012981ull,
                17252261894376986620ull,
            },
            "coverage program");
}

}  // namespace
}  // namespace ute
