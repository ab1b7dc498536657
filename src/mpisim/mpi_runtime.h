// Simulated MPI runtime with PMPI-style tracing wrappers.
//
// Implements the MpiService hooks the cluster simulator calls for every
// MPI op: point-to-point matching (tag + source, MPI_ANY_SOURCE/ANY_TAG,
// unexpected-message queues, per-message sequence numbers so the analysis
// utilities can match sends with receives — Section 2.1), non-blocking
// requests with Wait, and tree-cost collectives. Every entry and exit
// cuts a trace record through the node's trace session, exactly where the
// real system's PMPI wrapper layer cut them.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/simulation.h"

namespace ute {

/// Interconnect and software-overhead cost model. Defaults are in the
/// ballpark of a 2000-era SP switch (tens of microseconds of latency,
/// ~100 MB/s) — the reproduction depends on shapes, not these constants.
struct MpiCostModel {
  Tick switchLatencyNs = 25 * kUs;
  double switchNsPerByte = 8.0;
  Tick shmLatencyNs = 3 * kUs;    ///< same-node (shared memory) path
  double shmNsPerByte = 1.0;
  Tick sendOverheadNs = 4 * kUs;  ///< CPU time to inject an eager send
  double sendCopyNsPerByte = 0.4;
  Tick recvPostNs = 2 * kUs;      ///< CPU time to post a receive
  double recvCopyNsPerByte = 0.4;
  Tick collectiveSetupNs = 6 * kUs;
  Tick initCostNs = 200 * kUs;
  Tick finalizeCostNs = 50 * kUs;
};

struct MpiRuntimeStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  std::uint64_t collectives = 0;
  std::uint64_t bytesSent = 0;
  std::uint64_t unexpectedMatches = 0;  ///< recv found the message waiting
  std::uint64_t postedMatches = 0;      ///< message found the recv waiting
};

inline constexpr std::int32_t kAnySource = -1;
inline constexpr std::int32_t kAnyTag = -1;
inline constexpr std::int32_t kCommWorld = 0;

class MpiRuntime : public MpiService {
 public:
  explicit MpiRuntime(Simulation& sim, MpiCostModel costs = {});

  EnterResult onEnter(SimThread& thread, const Op& op) override;
  Tick onResume(SimThread& thread, const Op& op) override;
  void onExit(SimThread& thread, const Op& op) override;

  const MpiRuntimeStats& stats() const { return stats_; }

 private:
  struct Message {
    TaskId src = -1;
    TaskId dst = -1;
    std::int32_t tag = 0;
    std::uint32_t bytes = 0;
    std::uint32_t seqno = 0;
    Tick arrival = 0;
  };

  /// A receive posted and not yet matched. `threadId` is the blocked
  /// caller for a blocking recv; for an irecv it is -1 and `reqKey`
  /// identifies the request instead.
  struct PostedRecv {
    int threadId = -1;
    std::int64_t reqKey = -1;
    TaskId src = kAnySource;
    std::int32_t tag = kAnyTag;
  };

  /// Result of a completed receive, pending its exit record.
  struct RecvResult {
    TaskId src = -1;
    std::int32_t tag = 0;
    std::uint32_t bytes = 0;
    std::uint32_t seqno = 0;
  };

  struct Request {
    bool isRecv = false;
    bool complete = false;
    int waiter = -1;  ///< thread blocked in MPI_Wait on this request
    RecvResult result;
  };

  /// One in-flight collective operation instance on a communicator.
  struct CollectiveInstance {
    OpKind kind = OpKind::kMpiBarrier;
    int arrived = 0;
    std::uint32_t maxBytes = 0;
    std::vector<int> waiters;
  };

  /// Per-call context stashed between onEnter and onExit of one thread.
  struct CallContext {
    bool haveRecvResult = false;
    RecvResult recvResult;
    Tick resumeCost = 0;
  };

  Tick latency(TaskId a, TaskId b) const;
  double nsPerByte(TaskId a, TaskId b) const;
  Tick collectiveCost(OpKind kind, std::uint32_t bytes) const;
  static std::int64_t requestKey(const SimThread& thread, std::int32_t slot);

  bool matches(const PostedRecv& posted, const Message& msg) const {
    return (posted.src == kAnySource || posted.src == msg.src) &&
           (posted.tag == kAnyTag || posted.tag == msg.tag);
  }
  bool matches(const Message& msg, TaskId src, std::int32_t tag) const {
    return (src == kAnySource || msg.src == src) &&
           (tag == kAnyTag || msg.tag == tag);
  }

  EnterResult enterSend(SimThread& thread, const Op& op, bool immediate);
  EnterResult enterRecv(SimThread& thread, const Op& op);
  EnterResult enterIrecv(SimThread& thread, const Op& op);
  EnterResult enterWait(SimThread& thread, const Op& op);
  EnterResult enterCollective(SimThread& thread, const Op& op);
  void deliver(const Message& msg);
  void cutEntry(SimThread& thread, const Op& op, std::uint32_t seqno);
  void cutExit(SimThread& thread, const Op& op);
  static EventType eventTypeFor(OpKind kind);

  Simulation& sim_;
  MpiCostModel costs_;
  MpiRuntimeStats stats_;
  std::uint32_t nextSeqno_ = 1;
  int worldSize_;

  std::vector<std::deque<Message>> unexpected_;   ///< per destination task
  std::vector<std::vector<PostedRecv>> posted_;   ///< per destination task
  std::unordered_map<std::int64_t, Request> requests_;
  /// Per-call context by thread id, reset by each call's exit record.
  std::vector<CallContext> calls_;
  /// Scratch for the payload of every entry and exit record cut here.
  ByteWriter payload_;

  /// Collective matching: tasks join instance `collSeq_[task]++` of their
  /// communicator; mismatched op kinds across tasks are detected.
  std::deque<CollectiveInstance> collectives_;
  std::size_t collectiveBase_ = 0;  ///< index of collectives_.front()
  std::vector<std::size_t> collSeq_;
};

}  // namespace ute
