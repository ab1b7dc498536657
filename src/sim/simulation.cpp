#include "sim/simulation.h"

#include <algorithm>

#include "support/errors.h"

namespace ute {

namespace {
constexpr std::uint64_t kZeroStepLimit = 100'000'000;
}

Simulation::Simulation(SimulationConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  if (config_.nodes.empty()) throw UsageError("simulation needs nodes");
  nodes_.resize(config_.nodes.size());
  for (std::size_t n = 0; n < config_.nodes.size(); ++n) {
    NodeRt& node = nodes_[n];
    node.cfg = config_.nodes[n];
    if (node.cfg.cpuCount <= 0) {
      throw UsageError("node " + std::to_string(n) + " has no CPUs");
    }
    node.clock = LocalClockModel(node.cfg.clock);
    node.cpus.resize(static_cast<std::size_t>(node.cfg.cpuCount));
  }
  setupThreads();
  // Reserve the per-node logical thread id for the clock daemon after all
  // program threads, then open the trace sessions (which cut the NodeInfo
  // control record at local time 0).
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeRt& node = nodes_[n];
    node.daemonLtid = node.nextLtid++;
    node.session = std::make_unique<TraceSession>(
        config_.trace, static_cast<NodeId>(n), node.cfg.cpuCount,
        node.clock.read(0));
  }
}

Simulation::~Simulation() = default;

void Simulation::setEventSink(EventSink sink) {
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!sink) {
      nodes_[n].session->setEventSink(nullptr);
      continue;
    }
    const NodeId node = static_cast<NodeId>(n);
    nodes_[n].session->setEventSink(
        [sink, node](const RawEvent& ev) { sink(node, ev); });
  }
}

void Simulation::setupThreads() {
  markerRegistries_.reserve(config_.processes.size());
  for (std::size_t p = 0; p < config_.processes.size(); ++p) {
    const ProcessConfig& proc = config_.processes[p];
    if (proc.node < 0 ||
        static_cast<std::size_t>(proc.node) >= nodes_.size()) {
      throw UsageError("process " + std::to_string(p) +
                       " placed on unknown node");
    }
    markerRegistries_.emplace_back(/*firstId=*/1);
    NodeRt& node = nodes_[static_cast<std::size_t>(proc.node)];
    for (const ThreadConfig& tc : proc.threads) {
      if (node.nextLtid >= kMaxThreadsPerNode) {
        throw UsageError("more than 512 threads on one node");
      }
      SimThread t;
      t.id = static_cast<int>(threads_.size());
      t.node = proc.node;
      t.processIndex = static_cast<int>(p);
      t.task = static_cast<TaskId>(p);
      t.ltid = node.nextLtid++;
      t.type = tc.type;
      t.program = &tc.program;
      threads_.push_back(std::move(t));
      ++node.liveThreads;
      ++liveTotal_;
    }
  }
  if (threads_.empty()) throw UsageError("simulation has no threads");
}

void Simulation::cutThreadInfoRecords() {
  for (const SimThread& t : threads_) {
    NodeRt& node = nodeOf(t);
    node.session->cut(
        EventType::kThreadInfo, 0, 0, t.ltid, localNow(node),
        payloadThreadInfo(payload_, t.ltid, 1000 + t.processIndex,
                          10000 + t.id, t.task, t.type));
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    NodeRt& node = nodes_[n];
    node.session->cut(
        EventType::kThreadInfo, 0, 0, node.daemonLtid, localNow(node),
        payloadThreadInfo(payload_, node.daemonLtid, 1,
                          10000 + 100000 * (1 + static_cast<int>(n)), -1,
                          ThreadType::kSystem));
  }
}

void Simulation::scheduleDaemonTick(NodeId nodeId, Tick at) {
  engine_.scheduleAt(at, [this, nodeId] {
    NodeRt& node = nodes_[static_cast<std::size_t>(nodeId)];
    if (node.liveThreads <= 0) return;
    const Tick global = engine_.now();
    Tick cutDelay = 0;
    if (!config_.clockDaemon.atomicRead &&
        config_.clockDaemon.outlierChance > 0 &&
        rng_.chance(config_.clockDaemon.outlierChance)) {
      // The daemon read the global clock, was descheduled, and only read
      // the local clock (and cut the record) after a delay.
      cutDelay = config_.clockDaemon.outlierDelayNs;
    }
    const auto cutRecord = [this, nodeId, global] {
      NodeRt& n = nodes_[static_cast<std::size_t>(nodeId)];
      const Tick local = localNow(n);
      n.session->cut(EventType::kGlobalClock, 0, 0, n.daemonLtid, local,
                     payloadGlobalClock(payload_, global, local));
    };
    if (cutDelay == 0) {
      cutRecord();
    } else {
      engine_.scheduleAfter(cutDelay, cutRecord);
    }
    scheduleDaemonTick(nodeId, engine_.now() + config_.clockDaemon.periodNs);
  });
}

void Simulation::run() {
  if (ran_) throw UsageError("Simulation::run called twice");
  ran_ = true;
  cutThreadInfoRecords();
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    // First global-clock record right at trace start: the merge utility
    // aligns the starting points of the per-node files with it.
    NodeRt& node = nodes_[n];
    const Tick local = localNow(node);
    node.session->cut(EventType::kGlobalClock, 0, 0, node.daemonLtid, local,
                      payloadGlobalClock(payload_, engine_.now(), local));
    scheduleDaemonTick(static_cast<NodeId>(n),
                       config_.clockDaemon.firstAtNs);
  }
  for (const SimThread& t : threads_) makeReady(t.id);
  engine_.run(config_.maxSimTimeNs);
  finishTime_ = engine_.now();
  for (SimThread& t : threads_) {
    if (t.state != ThreadState::kDone) {
      throw UsageError("simulation deadlock: thread " + std::to_string(t.id) +
                       " of task " + std::to_string(t.task) +
                       " never finished (blocked in " +
                       (t.pc < t.program->size()
                            ? opKindName((*t.program)[t.pc].kind)
                            : std::string("?")) +
                       ")");
    }
  }
  for (NodeRt& node : nodes_) {
    const Tick local = localNow(node);
    node.session->cut(EventType::kGlobalClock, 0, 0, node.daemonLtid, local,
                      payloadGlobalClock(payload_, engine_.now(), local));
    node.session->close();
  }
}

std::vector<std::string> Simulation::traceFilePaths() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    out.push_back(TraceSession::traceFilePath(config_.trace.filePrefix,
                                              static_cast<NodeId>(n)));
  }
  return out;
}

const TraceSessionStats& Simulation::sessionStats(NodeId node) const {
  return nodes_.at(static_cast<std::size_t>(node)).session->stats();
}

void Simulation::wake(int threadId, Tick notBefore) {
  const Tick at = std::max(engine_.now(), notBefore);
  engine_.scheduleAt(at, [this, threadId] { onWake(threadId); });
}

void Simulation::onWake(int threadId) {
  SimThread& t = thread(threadId);
  switch (t.state) {
    case ThreadState::kBlocked:
      makeReady(threadId);
      break;
    case ThreadState::kRunning:
      // Message arrived while the thread is still burning the CPU portion
      // of the call (or mid-activity after a sleep-race); remember it so
      // the call resumes without leaving the CPU.
      t.wakePending = true;
      break;
    case ThreadState::kReady:
    case ThreadState::kDone:
      break;  // spurious or duplicate wake; harmless
  }
}

void Simulation::cutEvent(const SimThread& t, EventType type,
                          std::uint8_t flags, const ByteWriter& payload) {
  NodeRt& node = nodes_[static_cast<std::size_t>(t.node)];
  node.session->cut(type, flags, t.cpu < 0 ? 0 : t.cpu, t.ltid,
                    localNow(node), payload);
}

bool Simulation::sameNode(TaskId a, TaskId b) const {
  const auto& procs = config_.processes;
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= procs.size() ||
      static_cast<std::size_t>(b) >= procs.size()) {
    return false;
  }
  return procs[static_cast<std::size_t>(a)].node ==
         procs[static_cast<std::size_t>(b)].node;
}

void Simulation::makeReady(int threadId) {
  SimThread& t = thread(threadId);
  t.state = ThreadState::kReady;
  NodeRt& node = nodeOf(t);
  node.readyQueue.push_back(threadId);
  tryDispatch(t.node);
}

void Simulation::tryDispatch(NodeId nodeId) {
  NodeRt& node = nodes_[static_cast<std::size_t>(nodeId)];
  while (!node.readyQueue.empty()) {
    // Least-recently-busy idle CPU: threads waking after a block tend to
    // land on a different processor, reproducing the thread migration the
    // processor-activity view (Figure 9) makes visible.
    int best = -1;
    for (std::size_t c = 0; c < node.cpus.size(); ++c) {
      if (node.cpus[c].running >= 0) continue;
      if (best < 0 || node.cpus[c].lastBusy <
                          node.cpus[static_cast<std::size_t>(best)].lastBusy) {
        best = static_cast<int>(c);
      }
    }
    if (best < 0) return;
    const int tid = node.readyQueue.front();
    node.readyQueue.pop_front();
    dispatchOn(nodeId, best, tid, /*prevLtid=*/-1);
  }
}

void Simulation::dispatchOn(NodeId nodeId, int cpuIdx, int threadId,
                            LogicalThreadId prevLtid, bool prevExited) {
  NodeRt& node = nodes_[static_cast<std::size_t>(nodeId)];
  Cpu& cpu = node.cpus[static_cast<std::size_t>(cpuIdx)];
  SimThread& t = thread(threadId);

  node.session->cut(EventType::kThreadDispatch, 0, cpuIdx, t.ltid,
                    localNow(node),
                    payloadThreadDispatch(payload_, prevLtid, t.ltid,
                                          prevExited));

  cpu.running = threadId;
  ++cpu.epoch;
  cpu.lastBusy = engine_.now();
  t.state = ThreadState::kRunning;
  t.cpu = cpuIdx;
  ++t.runEpoch;
  const std::uint64_t epoch = t.runEpoch;
  engine_.scheduleAfter(config_.scheduler.dispatchCostNs,
                        [this, threadId, epoch] { beginRun(threadId, epoch); });
  armQuantum(nodeId, cpuIdx);
}

void Simulation::armQuantum(NodeId nodeId, int cpuIdx) {
  NodeRt& node = nodes_[static_cast<std::size_t>(nodeId)];
  const std::uint64_t epoch = node.cpus[static_cast<std::size_t>(cpuIdx)].epoch;
  engine_.scheduleAfter(config_.scheduler.quantumNs, [this, nodeId, cpuIdx,
                                                      epoch] {
    onQuantumExpiry(nodeId, cpuIdx, epoch);
  });
}

void Simulation::onQuantumExpiry(NodeId nodeId, int cpuIdx,
                                 std::uint64_t epoch) {
  NodeRt& node = nodes_[static_cast<std::size_t>(nodeId)];
  Cpu& cpu = node.cpus[static_cast<std::size_t>(cpuIdx)];
  if (cpu.epoch != epoch || cpu.running < 0) return;  // stale
  if (node.readyQueue.empty()) {
    // Nobody waiting; let the thread keep the processor another quantum.
    engine_.scheduleAfter(config_.scheduler.quantumNs,
                          [this, nodeId, cpuIdx, epoch] {
                            onQuantumExpiry(nodeId, cpuIdx, epoch);
                          });
    return;
  }
  const int oldTid = cpu.running;
  SimThread& old = thread(oldTid);
  // Charge the partial burst and compute what is left of the activity.
  const Tick elapsed = engine_.now() - old.workStart;
  old.cpuTimeNs += elapsed;
  old.activityRemaining =
      old.activityRemaining > elapsed ? old.activityRemaining - elapsed : 1;
  ++old.runEpoch;  // invalidate its in-flight completion event
  old.state = ThreadState::kReady;
  old.cpu = -1;

  const int nextTid = node.readyQueue.front();
  node.readyQueue.pop_front();
  node.readyQueue.push_back(oldTid);
  cpu.running = -1;
  dispatchOn(nodeId, cpuIdx, nextTid, old.ltid);
}

void Simulation::beginRun(int threadId, std::uint64_t epoch) {
  SimThread& t = thread(threadId);
  if (t.runEpoch != epoch || t.state != ThreadState::kRunning) return;
  if (t.activity == ThreadActivity::kCallBlocked) {
    resumeCall(threadId);
    return;
  }
  if (t.activity == ThreadActivity::kIoBlocked) {
    // The I/O completed while blocked; cut the exit record on resume.
    const Op& op = (*t.program)[t.callOp];
    cutEvent(t, op.kind == OpKind::kIoRead ? EventType::kIoRead
                                           : EventType::kIoWrite,
             kFlagEnd, ByteWriter{});
    ++t.pc;
    t.activity = ThreadActivity::kNone;
    interpret(threadId);
    return;
  }
  if (t.activity != ThreadActivity::kNone && t.activityRemaining > 0) {
    scheduleCompletion(threadId);  // resume a preempted burst
    return;
  }
  t.activity = ThreadActivity::kNone;
  interpret(threadId);
}

void Simulation::scheduleCompletion(int threadId) {
  SimThread& t = thread(threadId);
  t.workStart = engine_.now();
  const std::uint64_t epoch = t.runEpoch;
  engine_.scheduleAfter(t.activityRemaining, [this, threadId, epoch] {
    onActivityDone(threadId, epoch);
  });
}

void Simulation::onActivityDone(int threadId, std::uint64_t epoch) {
  SimThread& t = thread(threadId);
  if (t.runEpoch != epoch || t.state != ThreadState::kRunning) return;
  t.cpuTimeNs += engine_.now() - t.workStart;
  t.activityRemaining = 0;

  switch (t.activity) {
    case ThreadActivity::kCompute:
    case ThreadActivity::kMarker:
    case ThreadActivity::kTraceCtl:
      t.activity = ThreadActivity::kNone;
      interpret(threadId);
      return;
    case ThreadActivity::kCallEnter: {
      if (t.callBlocks && !t.wakePending) {
        t.activity = ThreadActivity::kCallBlocked;
        blockThread(threadId);
        return;
      }
      if (t.callBlocks && t.wakePending) {
        t.wakePending = false;
        resumeCall(threadId);
        return;
      }
      // Non-blocking call: complete it on the spot.
      mpi_->onExit(t, (*t.program)[t.callOp]);
      ++t.pc;
      t.activity = ThreadActivity::kNone;
      interpret(threadId);
      return;
    }
    case ThreadActivity::kIoSetup: {
      const Op& op = (*t.program)[t.callOp];
      const Tick ioTime =
          config_.costs.ioLatencyNs +
          static_cast<Tick>(config_.costs.ioNsPerByte *
                            static_cast<double>(op.bytes));
      const Tick wakeAt = engine_.now() + ioTime;
      t.activity = ThreadActivity::kIoBlocked;
      blockThread(threadId);
      wake(threadId, wakeAt);
      return;
    }
    case ThreadActivity::kCallResume: {
      mpi_->onExit(t, (*t.program)[t.callOp]);
      ++t.pc;
      t.activity = ThreadActivity::kNone;
      interpret(threadId);
      return;
    }
    case ThreadActivity::kNone:
    case ThreadActivity::kCallBlocked:
    case ThreadActivity::kIoBlocked:
      throw UsageError("activity completion in invalid state");
  }
}

void Simulation::resumeCall(int threadId) {
  SimThread& t = thread(threadId);
  const Op& op = (*t.program)[t.callOp];
  const Tick cost = mpi_->onResume(t, op);
  if (cost > 0) {
    t.activity = ThreadActivity::kCallResume;
    t.activityRemaining = cost;
    scheduleCompletion(threadId);
    return;
  }
  mpi_->onExit(t, op);
  ++t.pc;
  t.activity = ThreadActivity::kNone;
  interpret(threadId);
}

void Simulation::interpret(int threadId) {
  SimThread& t = thread(threadId);
  NodeRt& node = nodeOf(t);
  for (;;) {
    if (++zeroStepGuard_ > kZeroStepLimit) {
      throw UsageError("program makes no progress (empty loop?)");
    }
    if (t.pc >= t.program->size()) {
      finishThread(threadId);
      return;
    }
    const Op& op = (*t.program)[t.pc];
    switch (op.kind) {
      case OpKind::kLoopBegin:
        if (op.count == 0) {
          t.pc = static_cast<std::size_t>(op.match) + 1;
        } else {
          t.loopStack.emplace_back(t.pc, op.count);
          ++t.pc;
        }
        continue;
      case OpKind::kLoopEnd: {
        auto& top = t.loopStack.back();
        if (--top.second > 0) {
          t.pc = top.first + 1;
        } else {
          t.loopStack.pop_back();
          ++t.pc;
        }
        continue;
      }
      case OpKind::kCompute: {
        if (op.duration == 0) {
          ++t.pc;
          continue;
        }
        zeroStepGuard_ = 0;
        // Section 5 extension: a compute burst may take a page fault,
        // stalling the thread off-CPU for the fault service time before
        // the burst runs.
        if (!t.faultedThisOp && config_.costs.pageFaultChance > 0 &&
            rng_.chance(config_.costs.pageFaultChance)) {
          t.faultedThisOp = true;
          const std::uint64_t addr =
              0x7f0000000000ULL + (rng_.next() & 0xffffff000ULL);
          payload_.clear();
          payload_.u64(addr);
          cutEvent(t, EventType::kPageFault, 0, payload_);
          const Tick wakeAt =
              engine_.now() + config_.costs.pageFaultServiceNs;
          t.activity = ThreadActivity::kNone;
          blockThread(threadId);
          wake(threadId, wakeAt);
          return;
        }
        t.faultedThisOp = false;
        t.activity = ThreadActivity::kCompute;
        t.activityRemaining = op.duration;
        ++t.pc;
        scheduleCompletion(threadId);
        return;
      }
      case OpKind::kSleep: {
        zeroStepGuard_ = 0;
        ++t.pc;
        t.activity = ThreadActivity::kNone;
        const Tick wakeAt = engine_.now() + op.duration;
        blockThread(threadId);
        wake(threadId, wakeAt);
        return;
      }
      case OpKind::kMarkerBegin:
      case OpKind::kMarkerEnd: {
        zeroStepGuard_ = 0;
        MarkerRegistry& reg =
            markerRegistries_[static_cast<std::size_t>(t.processIndex)];
        const std::size_t before = reg.entries().size();
        const std::uint32_t id = reg.define(op.marker);
        if (reg.entries().size() != before) {
          cutEvent(t, EventType::kMarkerDef, 0,
                   payloadMarkerDef(payload_, id, op.marker));
        }
        const std::uint64_t instrAddr =
            (static_cast<std::uint64_t>(t.processIndex) << 32) |
            (static_cast<std::uint64_t>(t.pc) * 16 + 0x1000);
        const std::uint8_t flag =
            op.kind == OpKind::kMarkerBegin ? kFlagBegin : kFlagEnd;
        cutEvent(t, EventType::kUserMarker, flag,
                 payloadUserMarker(payload_, id, instrAddr));
        t.activity = ThreadActivity::kMarker;
        t.activityRemaining = std::max<Tick>(config_.costs.markerCallNs, 1);
        ++t.pc;
        scheduleCompletion(threadId);
        return;
      }
      case OpKind::kIoRead:
      case OpKind::kIoWrite: {
        zeroStepGuard_ = 0;
        payload_.clear();
        payload_.u32(op.bytes);
        cutEvent(t, op.kind == OpKind::kIoRead ? EventType::kIoRead
                                               : EventType::kIoWrite,
                 kFlagBegin, payload_);
        t.callOp = t.pc;
        // Post the request on the CPU first so the call gets a non-empty
        // begin piece, then block for the device time.
        t.activity = ThreadActivity::kIoSetup;
        t.activityRemaining = std::max<Tick>(config_.costs.ioSetupNs, 1);
        scheduleCompletion(threadId);
        return;
      }
      case OpKind::kTraceOn:
      case OpKind::kTraceOff: {
        zeroStepGuard_ = 0;
        if (op.kind == OpKind::kTraceOn) {
          node.session->traceOn();
        } else {
          node.session->traceOff();
        }
        t.activity = ThreadActivity::kTraceCtl;
        t.activityRemaining = std::max<Tick>(config_.costs.traceControlNs, 1);
        ++t.pc;
        scheduleCompletion(threadId);
        return;
      }
      default: {  // MPI ops
        zeroStepGuard_ = 0;
        if (mpi_ == nullptr) {
          throw UsageError("program uses MPI but no MpiService installed");
        }
        t.callOp = t.pc;
        t.wakePending = false;
        const MpiService::EnterResult r = mpi_->onEnter(t, op);
        t.callBlocks = r.blocks;
        t.activity = ThreadActivity::kCallEnter;
        t.activityRemaining = std::max<Tick>(r.cpuCost, 1);
        scheduleCompletion(threadId);
        return;
      }
    }
  }
}

void Simulation::blockThread(int threadId) {
  SimThread& t = thread(threadId);
  t.state = ThreadState::kBlocked;
  releaseCpu(threadId);
}

void Simulation::finishThread(int threadId) {
  SimThread& t = thread(threadId);
  t.state = ThreadState::kDone;
  --nodeOf(t).liveThreads;
  releaseCpu(threadId);
  // Once every thread has finished, nothing left in the queue matters
  // (daemon ticks, stale quantum expiries); end the run at this instant
  // so the trace ends with the last real activity.
  if (--liveTotal_ == 0) engine_.requestStop();
}

void Simulation::releaseCpu(int threadId) {
  SimThread& t = thread(threadId);
  ++t.runEpoch;
  if (t.cpu < 0) return;
  NodeRt& node = nodeOf(t);
  const int cpuIdx = t.cpu;
  Cpu& cpu = node.cpus[static_cast<std::size_t>(cpuIdx)];
  t.cpu = -1;
  ++cpu.epoch;
  cpu.lastBusy = engine_.now();
  cpu.running = -1;
  const bool exited = t.state == ThreadState::kDone;
  if (!node.readyQueue.empty()) {
    const int nextTid = node.readyQueue.front();
    node.readyQueue.pop_front();
    dispatchOn(t.node, cpuIdx, nextTid, t.ltid, exited);
  } else {
    // Processor goes idle; one dispatch record with new = -1.
    node.session->cut(EventType::kThreadDispatch, 0, cpuIdx, -1,
                      localNow(node),
                      payloadThreadDispatch(payload_, t.ltid, -1, exited));
  }
}

}  // namespace ute
