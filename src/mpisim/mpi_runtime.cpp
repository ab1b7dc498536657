#include "mpisim/mpi_runtime.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "support/errors.h"

namespace ute {

namespace {
/// ceil(log2(n)) for n >= 1; tree depth of a collective over n tasks.
int treeDepth(int n) {
  return n <= 1 ? 1 : std::bit_width(static_cast<unsigned>(n - 1));
}
}  // namespace

MpiRuntime::MpiRuntime(Simulation& sim, MpiCostModel costs)
    : sim_(sim),
      costs_(costs),
      worldSize_(sim.taskCount()),
      calls_(static_cast<std::size_t>(sim.threadCount())) {
  unexpected_.resize(static_cast<std::size_t>(worldSize_));
  posted_.resize(static_cast<std::size_t>(worldSize_));
  collSeq_.resize(static_cast<std::size_t>(worldSize_), 0);
}

Tick MpiRuntime::latency(TaskId a, TaskId b) const {
  return sim_.sameNode(a, b) ? costs_.shmLatencyNs : costs_.switchLatencyNs;
}

double MpiRuntime::nsPerByte(TaskId a, TaskId b) const {
  return sim_.sameNode(a, b) ? costs_.shmNsPerByte : costs_.switchNsPerByte;
}

std::int64_t MpiRuntime::requestKey(const SimThread& thread,
                                    std::int32_t slot) {
  return (static_cast<std::int64_t>(thread.id) << 20) | slot;
}

EventType MpiRuntime::eventTypeFor(OpKind kind) {
  switch (kind) {
    case OpKind::kMpiInit: return EventType::kMpiInit;
    case OpKind::kMpiFinalize: return EventType::kMpiFinalize;
    case OpKind::kMpiSend: return EventType::kMpiSend;
    case OpKind::kMpiRecv: return EventType::kMpiRecv;
    case OpKind::kMpiIsend: return EventType::kMpiIsend;
    case OpKind::kMpiIrecv: return EventType::kMpiIrecv;
    case OpKind::kMpiWait: return EventType::kMpiWait;
    case OpKind::kMpiBarrier: return EventType::kMpiBarrier;
    case OpKind::kMpiBcast: return EventType::kMpiBcast;
    case OpKind::kMpiReduce: return EventType::kMpiReduce;
    case OpKind::kMpiAllreduce: return EventType::kMpiAllreduce;
    case OpKind::kMpiAlltoall: return EventType::kMpiAlltoall;
    default:
      throw UsageError("not an MPI op: " + opKindName(kind));
  }
}

void MpiRuntime::cutEntry(SimThread& thread, const Op& op,
                          std::uint32_t seqno) {
  const EventType type = eventTypeFor(op.kind);
  ByteWriter& w = payload_;
  switch (op.kind) {
    case OpKind::kMpiSend:
      payloadMpiSend(w, op.peer, op.tag, op.bytes, seqno, kCommWorld);
      break;
    case OpKind::kMpiIsend:
      payloadMpiSend(w, op.peer, op.tag, op.bytes, seqno, kCommWorld);
      w.i32(op.reqSlot);
      break;
    case OpKind::kMpiRecv:
      payloadMpiRecvEntry(w, op.peer, op.tag, kCommWorld);
      break;
    case OpKind::kMpiIrecv:
      payloadMpiRecvEntry(w, op.peer, op.tag, kCommWorld);
      w.i32(op.reqSlot);
      break;
    case OpKind::kMpiWait:
      w.clear();
      w.i32(op.reqSlot);
      break;
    case OpKind::kMpiBcast:
    case OpKind::kMpiReduce:
      payloadMpiCollective(w, op.bytes, op.root, kCommWorld);
      break;
    case OpKind::kMpiAllreduce:
    case OpKind::kMpiAlltoall:
      payloadMpiCollective(w, op.bytes, 0, kCommWorld);
      break;
    case OpKind::kMpiBarrier:
      w.clear();
      w.i32(kCommWorld);
      break;
    default:  // Init, Finalize: no arguments
      w.clear();
      break;
  }
  sim_.cutEvent(thread, type, kFlagBegin, w);
}

void MpiRuntime::cutExit(SimThread& thread, const Op& op) {
  CallContext& ctx = calls_[static_cast<std::size_t>(thread.id)];
  if (ctx.haveRecvResult) {
    const RecvResult& r = ctx.recvResult;
    payloadMpiRecvExit(payload_, r.src, r.tag, r.bytes, r.seqno);
  } else {
    payload_.clear();
  }
  sim_.cutEvent(thread, eventTypeFor(op.kind), kFlagEnd, payload_);
  ctx = CallContext{};
}

MpiService::EnterResult MpiRuntime::onEnter(SimThread& thread, const Op& op) {
  if (thread.task < 0 || thread.task >= worldSize_) {
    throw UsageError("MPI call from thread without a task");
  }
  calls_[static_cast<std::size_t>(thread.id)] = CallContext{};
  switch (op.kind) {
    case OpKind::kMpiSend:
      return enterSend(thread, op, /*immediate=*/false);
    case OpKind::kMpiIsend:
      return enterSend(thread, op, /*immediate=*/true);
    case OpKind::kMpiRecv:
      return enterRecv(thread, op);
    case OpKind::kMpiIrecv:
      return enterIrecv(thread, op);
    case OpKind::kMpiWait:
      return enterWait(thread, op);
    default:
      return enterCollective(thread, op);
  }
}

MpiService::EnterResult MpiRuntime::enterSend(SimThread& thread, const Op& op,
                                              bool immediate) {
  if (op.peer < 0 || op.peer >= worldSize_) {
    throw UsageError("send to invalid task " + std::to_string(op.peer));
  }
  const std::uint32_t seqno = nextSeqno_++;
  cutEntry(thread, op, seqno);
  ++stats_.sends;
  stats_.bytesSent += op.bytes;

  const Tick inject =
      costs_.sendOverheadNs +
      static_cast<Tick>(costs_.sendCopyNsPerByte *
                        static_cast<double>(op.bytes));
  Message msg;
  msg.src = thread.task;
  msg.dst = op.peer;
  msg.tag = op.tag;
  msg.bytes = op.bytes;
  msg.seqno = seqno;
  msg.arrival =
      sim_.engine().now() + inject + latency(thread.task, op.peer) +
      static_cast<Tick>(nsPerByte(thread.task, op.peer) *
                        static_cast<double>(op.bytes));
  sim_.engine().scheduleAt(msg.arrival, [this, msg] { deliver(msg); });

  if (immediate) {
    // Eager isend: the request is locally complete once injected.
    requests_[requestKey(thread, op.reqSlot)] = Request{};
    requests_[requestKey(thread, op.reqSlot)].complete = true;
  }
  return {inject, /*blocks=*/false};
}

MpiService::EnterResult MpiRuntime::enterRecv(SimThread& thread,
                                              const Op& op) {
  cutEntry(thread, op, 0);
  ++stats_.recvs;
  auto& queue = unexpected_[static_cast<std::size_t>(thread.task)];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (!matches(*it, op.peer, op.tag)) continue;
    // Message already arrived: copy it out and return without blocking.
    ++stats_.unexpectedMatches;
    CallContext& ctx = calls_[static_cast<std::size_t>(thread.id)];
    ctx.haveRecvResult = true;
    ctx.recvResult = {it->src, it->tag, it->bytes, it->seqno};
    const Tick copy = static_cast<Tick>(costs_.recvCopyNsPerByte *
                                        static_cast<double>(it->bytes));
    queue.erase(it);
    return {costs_.recvPostNs + copy, /*blocks=*/false};
  }
  PostedRecv posted;
  posted.threadId = thread.id;
  posted.src = op.peer;
  posted.tag = op.tag;
  posted_[static_cast<std::size_t>(thread.task)].push_back(posted);
  return {costs_.recvPostNs, /*blocks=*/true};
}

MpiService::EnterResult MpiRuntime::enterIrecv(SimThread& thread,
                                               const Op& op) {
  cutEntry(thread, op, 0);
  const std::int64_t key = requestKey(thread, op.reqSlot);
  Request req;
  req.isRecv = true;
  auto& queue = unexpected_[static_cast<std::size_t>(thread.task)];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (!matches(*it, op.peer, op.tag)) continue;
    req.complete = true;
    req.result = {it->src, it->tag, it->bytes, it->seqno};
    queue.erase(it);
    break;
  }
  if (!req.complete) {
    PostedRecv posted;
    posted.reqKey = key;
    posted.src = op.peer;
    posted.tag = op.tag;
    posted_[static_cast<std::size_t>(thread.task)].push_back(posted);
  }
  requests_[key] = req;
  return {costs_.recvPostNs, /*blocks=*/false};
}

MpiService::EnterResult MpiRuntime::enterWait(SimThread& thread,
                                              const Op& op) {
  cutEntry(thread, op, 0);
  const std::int64_t key = requestKey(thread, op.reqSlot);
  const auto it = requests_.find(key);
  if (it == requests_.end()) {
    throw UsageError("MPI_Wait on unknown request slot " +
                     std::to_string(op.reqSlot));
  }
  Request& req = it->second;
  if (req.complete) {
    CallContext& ctx = calls_[static_cast<std::size_t>(thread.id)];
    Tick copy = 0;
    if (req.isRecv) {
      ++stats_.recvs;
      ctx.haveRecvResult = true;
      ctx.recvResult = req.result;
      copy = static_cast<Tick>(costs_.recvCopyNsPerByte *
                               static_cast<double>(req.result.bytes));
    }
    requests_.erase(it);
    return {1 * kUs + copy, /*blocks=*/false};
  }
  req.waiter = thread.id;
  return {1 * kUs, /*blocks=*/true};
}

MpiService::EnterResult MpiRuntime::enterCollective(SimThread& thread,
                                                    const Op& op) {
  cutEntry(thread, op, 0);
  ++stats_.collectives;
  std::size_t& seq = collSeq_[static_cast<std::size_t>(thread.task)];
  const std::size_t index = seq++;
  while (collectiveBase_ + collectives_.size() <= index) {
    collectives_.emplace_back();
    collectives_.back().kind = op.kind;
  }
  CollectiveInstance& inst = collectives_[index - collectiveBase_];
  if (inst.arrived == 0) inst.kind = op.kind;
  if (inst.kind != op.kind) {
    throw UsageError("collective mismatch: task " + std::to_string(thread.task) +
                     " called " + opKindName(op.kind) + " where others called " +
                     opKindName(inst.kind));
  }
  inst.maxBytes = std::max(inst.maxBytes, op.bytes);
  inst.waiters.push_back(thread.id);
  if (++inst.arrived == worldSize_) {
    const Tick done = sim_.engine().now() + collectiveCost(inst.kind,
                                                           inst.maxBytes);
    for (int tid : inst.waiters) sim_.wake(tid, done);
    // Retire fully-drained instances from the front of the window.
    while (!collectives_.empty() &&
           collectives_.front().arrived == worldSize_) {
      collectives_.pop_front();
      ++collectiveBase_;
    }
  }
  return {costs_.collectiveSetupNs, /*blocks=*/true};
}

Tick MpiRuntime::collectiveCost(OpKind kind, std::uint32_t bytes) const {
  const int depth = treeDepth(worldSize_);
  const Tick lat = costs_.switchLatencyNs;
  const auto volume = static_cast<Tick>(costs_.switchNsPerByte *
                                        static_cast<double>(bytes));
  switch (kind) {
    case OpKind::kMpiInit:
      return costs_.initCostNs;
    case OpKind::kMpiFinalize:
      return costs_.finalizeCostNs;
    case OpKind::kMpiBarrier:
      return costs_.collectiveSetupNs + lat * static_cast<Tick>(depth);
    case OpKind::kMpiBcast:
    case OpKind::kMpiReduce:
      return costs_.collectiveSetupNs +
             static_cast<Tick>(depth) * (lat + volume);
    case OpKind::kMpiAllreduce:
      return costs_.collectiveSetupNs +
             2 * static_cast<Tick>(depth) * (lat + volume);
    case OpKind::kMpiAlltoall:
      return costs_.collectiveSetupNs +
             static_cast<Tick>(worldSize_ - 1) * (lat + volume);
    default:
      throw UsageError("no collective cost for " + opKindName(kind));
  }
}

void MpiRuntime::deliver(const Message& msg) {
  auto& postedList = posted_[static_cast<std::size_t>(msg.dst)];
  for (auto it = postedList.begin(); it != postedList.end(); ++it) {
    if (!matches(*it, msg)) continue;
    ++stats_.postedMatches;
    const PostedRecv posted = *it;
    postedList.erase(it);
    if (posted.threadId >= 0) {
      // A blocking receive is waiting on this message.
      CallContext& ctx = calls_[static_cast<std::size_t>(posted.threadId)];
      ctx.haveRecvResult = true;
      ctx.recvResult = {msg.src, msg.tag, msg.bytes, msg.seqno};
      ctx.resumeCost = static_cast<Tick>(costs_.recvCopyNsPerByte *
                                         static_cast<double>(msg.bytes));
      sim_.wake(posted.threadId, msg.arrival);
    } else {
      // An irecv request: complete it and wake a blocked waiter if any.
      Request& req = requests_.at(posted.reqKey);
      req.complete = true;
      req.result = {msg.src, msg.tag, msg.bytes, msg.seqno};
      if (req.waiter >= 0) {
        CallContext& ctx = calls_[static_cast<std::size_t>(req.waiter)];
        ++stats_.recvs;
        ctx.haveRecvResult = true;
        ctx.recvResult = req.result;
        ctx.resumeCost = static_cast<Tick>(
            costs_.recvCopyNsPerByte * static_cast<double>(msg.bytes));
        const int waiter = req.waiter;
        requests_.erase(posted.reqKey);
        sim_.wake(waiter, msg.arrival);
      }
    }
    return;
  }
  unexpected_[static_cast<std::size_t>(msg.dst)].push_back(msg);
}

Tick MpiRuntime::onResume(SimThread& thread, const Op&) {
  // A slot reset by cutExit (or never entered) has no resume cost.
  return std::exchange(
      calls_[static_cast<std::size_t>(thread.id)].resumeCost, Tick{0});
}

void MpiRuntime::onExit(SimThread& thread, const Op& op) {
  cutExit(thread, op);
}

}  // namespace ute
