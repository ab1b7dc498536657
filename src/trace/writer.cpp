#include "trace/writer.h"

#include <cstring>

#include "support/errors.h"

namespace ute {

namespace {
constexpr std::uint32_t kRawMagic = 0x52455455;  // "UTER" little-endian
constexpr std::uint32_t kRawVersion = 1;
}  // namespace

std::string TraceSession::traceFilePath(const std::string& prefix,
                                        NodeId node) {
  return prefix + "." + std::to_string(node) + ".utr";
}

TraceSession::TraceSession(const TraceOptions& options, NodeId node,
                           int cpuCount, Tick initialLocalTs)
    : options_(options),
      node_(node),
      filePath_(traceFilePath(options.filePrefix, node)),
      file_(filePath_),
      tracingEnabled_(options.startEnabled) {
  if (options_.bufferSizeBytes < 4096) options_.bufferSizeBytes = 4096;
  buffer_.reserve(options_.bufferSizeBytes);

  ByteWriter header;
  header.u32(kRawMagic);
  header.u32(kRawVersion);
  header.i32(node);
  header.i32(cpuCount);
  file_.write(header);
  stats_.bytesWritten += header.size();

  // The node-info record is a control record: always cut, so readers know
  // the topology even when tracing proper starts later.
  ByteWriter payload;
  cut(EventType::kNodeInfo, 0, 0, -1, initialLocalTs,
      payloadNodeInfo(payload, node, cpuCount));
}

TraceSession::~TraceSession() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; an explicit close() surfaces errors.
  }
}

bool TraceSession::classEnabled(EventType type) const {
  const EventClass c = eventClassOf(type);
  if (c == EventClass::kControl) return true;
  if (!tracingEnabled_) return false;
  return (options_.enabledClasses & TraceOptions::classBit(c)) != 0;
}

void TraceSession::cut(EventType type, std::uint8_t flags, CpuId cpu,
                       LogicalThreadId ltid, Tick localTs,
                       std::span<const std::uint8_t> payload) {
  if (closed_) throw UsageError("TraceSession: cut after close");
  // Part one of the paper's record cost: the enablement test.
  if (!classEnabled(type)) {
    ++stats_.eventsSuppressed;
    return;
  }
  if (localTs < lastLocalTs_) {
    throw UsageError("TraceSession: local timestamps must be non-decreasing");
  }
  lastLocalTs_ = localTs;

  // The live-ingest mirror fires before the wrap/buffer bookkeeping:
  // the sink sees full 64-bit time, so wrap records (skipped below via
  // the type test) would be redundant on that path.
  if (sink_ && type != EventType::kTimestampWrap) {
    RawEvent ev;
    ev.type = type;
    ev.flags = flags;
    ev.cpu = cpu;
    ev.ltid = ltid;
    ev.localTs = localTs;
    ev.payload = payload;
    sink_(ev);
  }

  // The on-disk timestamp is one 32-bit word; emit a wrap record whenever
  // the high word advances so readers can rebuild 64-bit time.
  const auto highWord = static_cast<std::uint32_t>(localTs >> 32);
  if (highWord != lastHighWord_) {
    lastHighWord_ = highWord;
    if (type != EventType::kTimestampWrap) {
      std::uint8_t wrap[4];
      storeLe(wrap, highWord);
      ++stats_.wrapRecords;
      // Recurse once; the wrap record itself never needs another wrap.
      // Wrap records are transparent bookkeeping: readers consume them
      // silently, so they are not counted in eventsCut.
      cut(EventType::kTimestampWrap, 0, cpu, ltid, localTs, wrap);
      --stats_.eventsCut;
    }
  }

  // Part two: the buffer insertion.
  const bool extended = payload.size() > 254;
  if (payload.size() > 0xffff) {
    throw UsageError("TraceSession: payload longer than 65535 bytes");
  }
  const std::size_t recordSize =
      4 /*hookword*/ + 4 /*timestamp*/ + 4 /*context*/ +
      (extended ? 2 : 0) + payload.size();
  if (buffer_.size() + recordSize > options_.bufferSizeBytes) flushBuffer();

  const std::uint32_t hw = makeHookword(
      type, flags,
      extended ? kExtendedLength : static_cast<std::uint8_t>(payload.size()));
  const std::size_t at = buffer_.size();
  buffer_.resize(at + recordSize);
  std::uint8_t* p = buffer_.data() + at;
  p = storeLe(p, hw);
  p = storeLe(p, static_cast<std::uint32_t>(localTs & 0xffffffffu));
  p = storeLe(p, makeContext(cpu, ltid));
  if (extended) p = storeLe(p, static_cast<std::uint16_t>(payload.size()));
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
  ++stats_.eventsCut;
}

void TraceSession::flushBuffer() {
  if (buffer_.empty()) return;
  file_.write(buffer_);
  stats_.bytesWritten += buffer_.size();
  ++stats_.bufferFlushes;
  buffer_.clear();
}

void TraceSession::close() {
  if (closed_) return;
  flushBuffer();
  file_.close();
  closed_ = true;
}

ByteWriter& payloadThreadDispatch(ByteWriter& out, LogicalThreadId oldTid,
                                  LogicalThreadId newTid, bool oldExited) {
  out.clear();
  out.i32(oldTid);
  out.i32(newTid);
  out.u32(oldExited ? 1 : 0);
  return out;
}

ByteWriter& payloadThreadInfo(ByteWriter& out, LogicalThreadId ltid,
                              std::int32_t pid, std::int32_t systemTid,
                              TaskId mpiTask, ThreadType type) {
  out.clear();
  out.i32(ltid);
  out.i32(pid);
  out.i32(systemTid);
  out.i32(mpiTask);
  out.u8(static_cast<std::uint8_t>(type));
  return out;
}

ByteWriter& payloadGlobalClock(ByteWriter& out, Tick globalNs, Tick localNs) {
  out.clear();
  out.u64(globalNs);
  out.u64(localNs);
  return out;
}

ByteWriter& payloadMarkerDef(ByteWriter& out, std::uint32_t markerId,
                             std::string_view name) {
  out.clear();
  out.u32(markerId);
  out.lstring(name);
  return out;
}

ByteWriter& payloadUserMarker(ByteWriter& out, std::uint32_t markerId,
                              std::uint64_t instrAddr) {
  out.clear();
  out.u32(markerId);
  out.u64(instrAddr);
  return out;
}

ByteWriter& payloadNodeInfo(ByteWriter& out, NodeId node,
                            std::int32_t cpuCount) {
  out.clear();
  out.i32(node);
  out.i32(cpuCount);
  return out;
}

ByteWriter& payloadMpiSend(ByteWriter& out, TaskId dest, std::int32_t tag,
                           std::uint32_t bytes, std::uint32_t seqno,
                           std::int32_t comm) {
  out.clear();
  out.i32(dest);
  out.i32(tag);
  out.u32(bytes);
  out.u32(seqno);
  out.i32(comm);
  return out;
}

ByteWriter& payloadMpiRecvEntry(ByteWriter& out, TaskId src, std::int32_t tag,
                                std::int32_t comm) {
  out.clear();
  out.i32(src);
  out.i32(tag);
  out.i32(comm);
  return out;
}

ByteWriter& payloadMpiRecvExit(ByteWriter& out, TaskId src, std::int32_t tag,
                               std::uint32_t bytes, std::uint32_t seqno) {
  out.clear();
  out.i32(src);
  out.i32(tag);
  out.u32(bytes);
  out.u32(seqno);
  return out;
}

ByteWriter& payloadMpiCollective(ByteWriter& out, std::uint32_t bytes,
                                 TaskId root, std::int32_t comm) {
  out.clear();
  out.u32(bytes);
  out.i32(root);
  out.i32(comm);
  return out;
}

}  // namespace ute
