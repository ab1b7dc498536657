// The simulated SMP cluster: nodes, processors, threads, the preemptive
// scheduler, and the hooks that cut trace records for everything that
// happens. This is the substrate standing in for the paper's IBM SP
// running AIX: it produces the same kind of raw per-node trace files —
// thread dispatch events interleaved with MPI events, user markers and
// global-clock records — that the convert/merge/visualization pipeline
// consumes.
//
// MPI call semantics (matching, message timing, collectives) live in
// src/mpisim behind the MpiService interface so the scheduler stays
// independent of the message layer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clock/clock_model.h"
#include "sim/config.h"
#include "sim/engine.h"
#include "support/rng.h"
#include "trace/marker_registry.h"
#include "trace/writer.h"

namespace ute {

class Simulation;

enum class ThreadState : std::uint8_t {
  kReady,
  kRunning,
  kBlocked,
  kDone,
};

/// What a running thread is currently burning CPU on (or blocked in).
enum class ThreadActivity : std::uint8_t {
  kNone,         ///< needs the interpreter to fetch the next op
  kCompute,      ///< inside a compute burst
  kMarker,       ///< marker-library call overhead
  kTraceCtl,     ///< trace on/off call overhead
  kCallEnter,    ///< CPU portion of an MPI call before a possible block
  kCallBlocked,  ///< blocked inside an MPI call, waiting for wake()
  kCallResume,   ///< CPU portion of an MPI call after the wake
  kIoSetup,      ///< CPU portion of an I/O call before it blocks
  kIoBlocked,    ///< blocked in a file read/write (Section 5 extension)
};

/// Runtime state of one simulated thread. Public so the MPI service can
/// identify callers and stash per-call context via `id`.
struct SimThread {
  int id = -1;  ///< global thread index
  NodeId node = 0;
  int processIndex = 0;
  TaskId task = -1;
  LogicalThreadId ltid = -1;
  ThreadType type = ThreadType::kUser;
  const Program* program = nullptr;

  // Interpreter state.
  std::size_t pc = 0;
  std::vector<std::pair<std::size_t, std::uint32_t>> loopStack;
  std::size_t callOp = 0;  ///< op index of the MPI call in flight

  ThreadState state = ThreadState::kReady;
  ThreadActivity activity = ThreadActivity::kNone;
  Tick activityRemaining = 0;
  Tick workStart = 0;       ///< when the current CPU burst began
  bool callBlocks = false;  ///< MPI enter decided to block after its burst
  bool wakePending = false; ///< wake() arrived while still on the CPU
  bool faultedThisOp = false;  ///< current compute op already page-faulted
  std::uint64_t runEpoch = 0;  ///< invalidates in-flight completion events
  CpuId cpu = -1;

  Tick cpuTimeNs = 0;  ///< accumulated CPU occupancy (for tests)
};

/// Interface the MPI runtime (src/mpisim) implements. The simulator calls
/// these at well-defined points of an MPI op's lifetime; the service cuts
/// the MPI entry/exit trace records and performs matching, and wakes
/// blocked threads through Simulation::wake().
class MpiService {
 public:
  virtual ~MpiService() = default;

  struct EnterResult {
    Tick cpuCost = 0;   ///< CPU time consumed inside the call before
                        ///< returning or blocking
    bool blocks = false;
  };

  /// The thread has just entered the MPI call `op` on a CPU.
  virtual EnterResult onEnter(SimThread& thread, const Op& op) = 0;

  /// The thread was woken and re-dispatched; returns the remaining CPU
  /// cost (e.g. the receive-side copy) before the call exits.
  virtual Tick onResume(SimThread& thread, const Op& op) = 0;

  /// The call completes on the CPU right now; cut the exit record here.
  virtual void onExit(SimThread& thread, const Op& op) = 0;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Installs the MPI runtime. Required when any program contains MPI ops.
  void setMpiService(MpiService* service) { mpi_ = service; }

  /// Mirrors every node session's cut records to `sink` with the node id
  /// attached (TraceSession::setEventSink) — the live streaming ingest
  /// taps the simulator here. Install before run(); the payload span is
  /// only valid for the duration of each call.
  using EventSink = std::function<void(NodeId, const RawEvent&)>;
  void setEventSink(EventSink sink);

  /// Runs the whole simulation to completion and closes the trace files.
  void run();

  // --- accessors ---------------------------------------------------------
  Engine& engine() { return engine_; }
  const SimulationConfig& config() const { return config_; }
  int threadCount() const { return static_cast<int>(threads_.size()); }
  SimThread& thread(int id) { return threads_[static_cast<std::size_t>(id)]; }
  int taskCount() const { return static_cast<int>(config_.processes.size()); }
  /// Paths of the raw trace files, one per node, valid after run().
  std::vector<std::string> traceFilePaths() const;
  Tick finishTimeNs() const { return finishTime_; }
  const TraceSessionStats& sessionStats(NodeId node) const;

  // --- services for MpiService -------------------------------------------
  /// Makes a blocked thread runnable at `notBefore` (clamped to now).
  void wake(int threadId, Tick notBefore);
  /// Cuts a trace record attributed to `thread` at the current time, using
  /// the thread's node session and local clock.
  void cutEvent(const SimThread& thread, EventType type, std::uint8_t flags,
                const ByteWriter& payload);
  /// True when both tasks run on the same node (cheaper shared-memory
  /// message path).
  bool sameNode(TaskId a, TaskId b) const;

 private:
  struct Cpu {
    int running = -1;            ///< global thread id, -1 = idle
    std::uint64_t epoch = 0;     ///< invalidates stale quantum events
    Tick lastBusy = 0;           ///< for least-recently-used idle selection
    bool quantumArmed = false;
  };

  struct NodeRt {
    NodeConfig cfg;
    LocalClockModel clock;
    std::unique_ptr<TraceSession> session;
    std::vector<Cpu> cpus;
    std::deque<int> readyQueue;
    LogicalThreadId nextLtid = 0;
    LogicalThreadId daemonLtid = -1;
    int liveThreads = 0;
  };

  NodeRt& nodeOf(const SimThread& t) { return nodes_[static_cast<std::size_t>(t.node)]; }
  Tick localNow(NodeRt& node) const { return node.clock.read(engine_.now()); }

  void setupThreads();
  void cutThreadInfoRecords();
  void scheduleDaemonTick(NodeId node, Tick at);

  void makeReady(int threadId);
  void tryDispatch(NodeId node);
  void dispatchOn(NodeId node, int cpuIdx, int threadId,
                  LogicalThreadId prevLtid, bool prevExited = false);
  void armQuantum(NodeId node, int cpuIdx);
  void onQuantumExpiry(NodeId node, int cpuIdx, std::uint64_t epoch);
  void beginRun(int threadId, std::uint64_t epoch);
  void scheduleCompletion(int threadId);
  void onActivityDone(int threadId, std::uint64_t epoch);
  void interpret(int threadId);
  void blockThread(int threadId);
  void finishThread(int threadId);
  /// Releases the CPU the thread occupies and dispatches a successor (or
  /// leaves the CPU idle), cutting one dispatch record for the switch.
  void releaseCpu(int threadId);
  void onWake(int threadId);
  void resumeCall(int threadId);

  SimulationConfig config_;
  Engine engine_;
  std::vector<NodeRt> nodes_;
  std::vector<SimThread> threads_;
  std::vector<MarkerRegistry> markerRegistries_;  ///< one per process
  MpiService* mpi_ = nullptr;
  Rng rng_;
  int liveTotal_ = 0;
  Tick finishTime_ = 0;
  bool ran_ = false;
  std::uint64_t zeroStepGuard_ = 0;
  /// Scratch for every record payload the scheduler cuts: filled by a
  /// payload builder, cut, and reused, so cutting allocates nothing.
  ByteWriter payload_;
};

}  // namespace ute
