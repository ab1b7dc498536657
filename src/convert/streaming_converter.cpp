#include "convert/streaming_converter.h"

#include "convert/converter.h"
#include "interval/record.h"
#include "support/errors.h"

namespace ute {

StreamingConverter::StreamingConverter(MarkerUnifier& markers, NodeId node,
                                       Callbacks callbacks)
    : markers_(markers), node_(node), callbacks_(std::move(callbacks)) {}

StreamingConverter::ThreadState& StreamingConverter::threadState(
    LogicalThreadId ltid) {
  if (ltid < 0) throw FormatError("event attributed to no thread");
  if (static_cast<std::size_t>(ltid) >= threads_.size()) {
    threads_.resize(static_cast<std::size_t>(ltid) + 1);
  }
  return threads_[static_cast<std::size_t>(ltid)];
}

void StreamingConverter::announceThreads() {
  if (threadsAnnounced_) return;
  threadsAnnounced_ = true;
  if (callbacks_.onThreads) callbacks_.onThreads(threadTable_);
}

void StreamingConverter::emit(std::span<const std::uint8_t> body) {
  announceThreads();
  if (callbacks_.onRecord) callbacks_.onRecord(body);
  ++recordsOut_;
}

void StreamingConverter::feed(const RawEvent& ev) {
  ++eventsIn_;
  lastEventTime_ = ev.localTs;
  switch (ev.type) {
    case EventType::kNodeInfo:
      return;
    case EventType::kThreadInfo: {
      if (threadsAnnounced_) {
        throw FormatError("ThreadInfo record after interval emission in " +
                          std::to_string(node_));
      }
      ByteReader r = ev.payloadReader();
      ThreadEntry entry;
      entry.ltid = r.i32();
      entry.pid = r.i32();
      entry.systemTid = r.i32();
      entry.task = r.i32();
      entry.type = static_cast<ThreadType>(r.u8());
      entry.node = node_;
      threadTable_.push_back(entry);
      ThreadState& ts = threadState(entry.ltid);
      ts.known = true;
      ts.pid = entry.pid;
      return;
    }
    case EventType::kMarkerDef: {
      ByteReader r = ev.payloadReader();
      const std::uint32_t localId = r.u32();
      const std::string name = r.lstring();
      const std::uint32_t unifiedId = markers_.unify(name);
      const ThreadState& ts = threadState(ev.ltid);
      markerMap_[{ts.pid, localId}] = unifiedId;
      if (callbacks_.onMarker) callbacks_.onMarker(unifiedId, name);
      return;
    }
    case EventType::kGlobalClock:
      emitClockSync(ev);
      return;
    case EventType::kThreadDispatch:
      handleDispatch(ev);
      return;
    case EventType::kUserMarker:
      handleMarker(ev, threadState(ev.ltid));
      return;
    case EventType::kPageFault: {
      // A point event: a zero-duration complete interval. It does not
      // interrupt the thread's current state piece (the stall shows up
      // as the descheduling that follows).
      encodeRecordBody(
          body_, makeIntervalType(EventType::kPageFault, Bebits::kComplete),
          ev.localTs, 0, ev.cpu, node_, ev.ltid, ev.payload);
      emit(body_.view());
      return;
    }
    default:
      if (isMpiEvent(ev.type) || isIoEvent(ev.type)) {
        ThreadState& ts = threadState(ev.ltid);
        if ((ev.flags & kFlagBegin) != 0) {
          handleCallEntry(ev, ts);
        } else {
          handleCallExit(ev, ts);
        }
        return;
      }
      throw FormatError("unexpected event type " + eventTypeName(ev.type) +
                        " in raw trace");
  }
}

void StreamingConverter::handleDispatch(const RawEvent& ev) {
  ByteReader r = ev.payloadReader();
  const LogicalThreadId oldTid = r.i32();
  const LogicalThreadId newTid = r.i32();
  const bool oldExited = r.remaining() >= 4 && r.u32() != 0;
  if (oldTid >= 0) {
    ThreadState& ts = threadState(oldTid);
    if (oldExited) {
      // The thread terminated: every state it still has open ends here,
      // innermost first, so its Running default state gets a proper
      // end/complete piece instead of lingering to the end of the trace.
      sealThread(oldTid, ts, ev.localTs);
    } else if (ts.onCpu) {
      closePiece(oldTid, ts, ev.localTs, /*finalPiece=*/false);
      ts.onCpu = false;
    }
  }
  if (newTid >= 0) {
    ThreadState& ts = threadState(newTid);
    if (ts.stack.empty()) {
      // First dispatch of this thread: its Running default state begins.
      ts.stack.push().reset(kRunningState);
    }
    openPiece(ts, ev.localTs, ev.cpu);
  }
}

void StreamingConverter::openPiece(ThreadState& ts, Tick t, CpuId cpu) {
  ts.onCpu = true;
  ts.cpu = cpu;
  ts.pieceStart = t;
}

void StreamingConverter::closePiece(LogicalThreadId ltid, ThreadState& ts,
                                    Tick t, bool finalPiece) {
  StateInstance& s = ts.stack.top();
  const Tick dura = t - ts.pieceStart;
  // Zero-length interruption pieces carry no information; suppress them
  // (a zero-length *final* piece still counts the call, so it is kept).
  if (dura == 0 && !finalPiece) return;
  const Bebits bebits =
      s.pieces == 0 ? (finalPiece ? Bebits::kComplete : Bebits::kBegin)
                    : (finalPiece ? Bebits::kEnd : Bebits::kContinuation);
  encodeRecordBody(body_, makeIntervalType(s.type, bebits), ts.pieceStart,
                   dura, ts.cpu, node_, ltid, s.argsAll.view());
  if (isFirstPiece(bebits)) body_.bytes(s.argsBegin.view());
  if (isLastPiece(bebits)) body_.bytes(s.argsEnd.view());
  emit(body_.view());
  ++s.pieces;
}

void StreamingConverter::handleCallEntry(const RawEvent& ev, ThreadState& ts) {
  if (!ts.onCpu) {
    throw FormatError("call entry from a thread that is not dispatched");
  }
  closePiece(ev.ltid, ts, ev.localTs, /*finalPiece=*/false);
  ts.stack.push().reset(ev.type).argsBegin.bytes(ev.payload);
  openPiece(ts, ev.localTs, ts.cpu);
}

void StreamingConverter::handleCallExit(const RawEvent& ev, ThreadState& ts) {
  if (!ts.onCpu || ts.stack.size() < 2) {
    throw FormatError("call exit without a matching entry");
  }
  StateInstance& s = ts.stack.top();
  if (s.type != ev.type) {
    throw FormatError("call exit type " + eventTypeName(ev.type) +
                      " does not match open call " + eventTypeName(s.type));
  }
  // Call results (Section 2.3.2: exit arguments become end-piece fields).
  if ((ev.type == EventType::kMpiRecv || ev.type == EventType::kMpiWait)) {
    if (ev.payload.size() == 16) {
      s.argsEnd.bytes(ev.payload);
    } else {
      // MPI_Wait on a send request: no receive result. Fill the fixed
      // result fields with sentinels so the record matches its spec.
      s.argsEnd.i32(-1);  // srcTask
      s.argsEnd.i32(-1);  // tagRecv
      s.argsEnd.u32(0);   // msgSizeRecv
      s.argsEnd.u32(0);   // seqNo
    }
  }
  closePiece(ev.ltid, ts, ev.localTs, /*finalPiece=*/true);
  ts.stack.pop();
  openPiece(ts, ev.localTs, ts.cpu);
}

void StreamingConverter::handleMarker(const RawEvent& ev, ThreadState& ts) {
  if (!ts.onCpu) {
    throw FormatError("marker event from a thread that is not dispatched");
  }
  ByteReader r = ev.payloadReader();
  const std::uint32_t localId = r.u32();
  const std::uint64_t instrAddr = r.u64();
  const auto mapped = markerMap_.find({ts.pid, localId});
  if (mapped == markerMap_.end()) {
    throw FormatError("marker event before its definition (id " +
                      std::to_string(localId) + ")");
  }
  const std::uint32_t unifiedId = mapped->second;

  if ((ev.flags & kFlagBegin) != 0) {
    closePiece(ev.ltid, ts, ev.localTs, /*finalPiece=*/false);
    StateInstance& s = ts.stack.push().reset(EventType::kUserMarker, unifiedId);
    s.argsAll.u32(unifiedId);
    s.argsBegin.u64(instrAddr);
    openPiece(ts, ev.localTs, ts.cpu);
  } else {
    if (ts.stack.size() < 2 || ts.stack.top().type != EventType::kUserMarker ||
        ts.stack.top().markerId != unifiedId) {
      throw FormatError("marker end does not match the open marker");
    }
    ts.stack.top().argsEnd.u64(instrAddr);
    closePiece(ev.ltid, ts, ev.localTs, /*finalPiece=*/true);
    ts.stack.pop();
    openPiece(ts, ev.localTs, ts.cpu);
  }
}

void StreamingConverter::emitClockSync(const RawEvent& ev) {
  ByteReader r = ev.payloadReader();
  const Tick global = r.u64();
  const Tick local = r.u64();
  encodeRecordBody(body_, makeIntervalType(kClockSyncState, Bebits::kComplete),
                   local, /*dura=*/0, ev.cpu, node_, ev.ltid);
  body_.u64(global);
  emit(body_.view());
}

void StreamingConverter::sealThread(LogicalThreadId ltid, ThreadState& ts,
                                    Tick t) {
  while (!ts.stack.empty()) {
    // A state sealed here never saw its exit event; pad the fixed result
    // fields its end/complete spec requires.
    StateInstance& top = ts.stack.top();
    if (top.argsEnd.empty()) {
      if (top.type == EventType::kMpiRecv || top.type == EventType::kMpiWait) {
        top.argsEnd.u64(0);
        top.argsEnd.u64(0);
      } else if (top.type == EventType::kUserMarker) {
        top.argsEnd.u64(0);
      }
    }
    if (!ts.onCpu) {
      // No active piece (the state was between pieces); seal it with a
      // zero-duration end piece so every instance terminates properly.
      openPiece(ts, t, ts.cpu);
    }
    closePiece(ltid, ts, t, /*finalPiece=*/true);
    ts.onCpu = false;
    ts.stack.pop();
  }
}

void StreamingConverter::finish() {
  for (LogicalThreadId ltid = 0;
       static_cast<std::size_t>(ltid) < threads_.size(); ++ltid) {
    sealThread(ltid, threads_[static_cast<std::size_t>(ltid)],
               lastEventTime_);
  }
  // An event stream with no intervals still has a thread table to hand
  // over (the batch path writes an empty .uti with it).
  announceThreads();
}

}  // namespace ute
