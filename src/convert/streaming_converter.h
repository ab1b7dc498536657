// Push-style event-to-interval conversion: the batch converter's
// per-file state machine with the input loop and the output file
// factored out. feed() raw events in time order; the converter fires
// callbacks with the frozen thread table (exactly once, immediately
// before the first interval record — or at finish() when a trace emits
// none), unified marker definitions, and encoded interval-record
// bodies.
//
// Two drivers share this one state machine: convertFile() writes the
// records into a .uti file (src/convert/converter.cpp), and the
// streaming ingest ships them over TCP as they are produced
// (src/stream). That sharing is what keeps a streamed conversion
// byte-identical to the batch one (docs/STREAMING.md).
//
// Thread-compatibility: confined to one thread, like the reader that
// feeds it; cross-thread marker unification is MarkerUnifier's job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "support/slot_stack.h"
#include "support/types.h"
#include "trace/reader.h"

namespace ute {

class MarkerUnifier;

class StreamingConverter {
 public:
  struct Callbacks {
    /// The complete thread table; fired once, before the first record.
    std::function<void(const std::vector<ThreadEntry>&)> onThreads;
    /// A unified marker definition (id, name); may fire before or after
    /// onThreads, in raw-event order.
    std::function<void(std::uint32_t, const std::string&)> onMarker;
    /// One encoded interval-record body, in ascending end-time order.
    std::function<void(std::span<const std::uint8_t>)> onRecord;
  };

  StreamingConverter(MarkerUnifier& markers, NodeId node, Callbacks callbacks);

  /// Converts one raw event; events must arrive in trace order (the
  /// order TraceFileReader yields, or a TraceSession sink fires).
  void feed(const RawEvent& ev);

  /// Seals every still-open state at the last event time and announces
  /// the thread table if no record ever forced it.
  void finish();

  const std::vector<ThreadEntry>& threads() const { return threadTable_; }
  NodeId node() const { return node_; }
  std::uint64_t eventsIn() const { return eventsIn_; }
  std::uint64_t recordsOut() const { return recordsOut_; }

 private:
  /// One open state of a thread: its event type and the pre-encoded
  /// field bytes for the piece variants (standard_profile.h ordering).
  struct StateInstance {
    EventType type = kRunningState;
    std::uint32_t markerId = 0;  ///< user markers only (for end matching)
    std::uint32_t pieces = 0;
    ByteWriter argsAll;
    ByteWriter argsBegin;
    ByteWriter argsEnd;

    /// Makes this (possibly reused) slot a fresh state of `type`, with
    /// empty argument buffers that keep their capacity.
    StateInstance& reset(EventType newType, std::uint32_t newMarkerId = 0) {
      type = newType;
      markerId = newMarkerId;
      pieces = 0;
      argsAll.clear();
      argsBegin.clear();
      argsEnd.clear();
      return *this;
    }
  };

  struct ThreadState {
    bool known = false;  ///< seen in a ThreadInfo record
    bool onCpu = false;
    CpuId cpu = 0;
    Tick pieceStart = 0;
    std::int32_t pid = 0;
    /// Open states, innermost last; a state opened later reuses the
    /// buffers of a popped one.
    SlotStack<StateInstance> stack;
  };

  ThreadState& threadState(LogicalThreadId ltid);
  void announceThreads();
  void emit(std::span<const std::uint8_t> body);
  void handleDispatch(const RawEvent& ev);
  void handleCallEntry(const RawEvent& ev, ThreadState& ts);
  void handleCallExit(const RawEvent& ev, ThreadState& ts);
  void handleMarker(const RawEvent& ev, ThreadState& ts);
  void openPiece(ThreadState& ts, Tick t, CpuId cpu);
  void closePiece(LogicalThreadId ltid, ThreadState& ts, Tick t,
                  bool finalPiece);
  void sealThread(LogicalThreadId ltid, ThreadState& ts, Tick t);
  void emitClockSync(const RawEvent& ev);

  MarkerUnifier& markers_;
  NodeId node_;
  Callbacks callbacks_;
  std::vector<ThreadEntry> threadTable_;
  std::vector<ThreadState> threads_;
  /// (pid, task-local marker id) -> unified marker id.
  std::map<std::pair<std::int32_t, std::uint32_t>, std::uint32_t> markerMap_;
  ByteWriter body_;  ///< the record being encoded, reused for every record
  bool threadsAnnounced_ = false;
  Tick lastEventTime_ = 0;
  std::uint64_t eventsIn_ = 0;
  std::uint64_t recordsOut_ = 0;
};

}  // namespace ute
