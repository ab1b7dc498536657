#include <gtest/gtest.h>

#include <filesystem>

#include "trace/reader.h"
#include "trace/writer.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPrefix(const std::string& name) {
  // Each TEST runs as its own ctest process; prefixing the pid keeps
  // parallel processes from clobbering each other's fixture files.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

TraceOptions optionsFor(const std::string& name) {
  TraceOptions o;
  o.filePrefix = tempPrefix(name);
  return o;
}

TEST(TraceRoundTrip, BasicEventsSurvive) {
  ByteWriter scratch;
  const TraceOptions options = optionsFor("trace_rt_basic");
  {
    TraceSession session(options, /*node=*/3, /*cpuCount=*/4);
    session.cut(EventType::kThreadDispatch, 0, 1, 5, 1000,
                payloadThreadDispatch(scratch, -1, 5));
    session.cut(EventType::kMpiSend, kFlagBegin, 1, 5, 2000,
                payloadMpiSend(scratch, 2, 17, 4096, 9, 0));
    session.cut(EventType::kMpiSend, kFlagEnd, 1, 5, 2500, ByteWriter{});
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 3));
  EXPECT_EQ(reader.node(), 3);
  EXPECT_EQ(reader.cpuCount(), 4);

  auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kNodeInfo);  // cut by the session itself

  ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kThreadDispatch);
  EXPECT_EQ(ev->localTs, 1000u);
  EXPECT_EQ(ev->cpu, 1);
  EXPECT_EQ(ev->ltid, 5);

  ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kMpiSend);
  EXPECT_EQ(ev->flags, kFlagBegin);
  ByteReader payload = ev->payloadReader();
  EXPECT_EQ(payload.i32(), 2);     // dest
  EXPECT_EQ(payload.i32(), 17);    // tag
  EXPECT_EQ(payload.u32(), 4096u); // bytes
  EXPECT_EQ(payload.u32(), 9u);    // seqno
  EXPECT_EQ(payload.i32(), 0);     // comm

  ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->flags, kFlagEnd);
  EXPECT_FALSE(reader.next());
}

TEST(TraceRoundTrip, TimestampWrapReconstructs64Bits) {
  ByteWriter scratch;
  // Timestamps straddling several 2^32 ns (~4.29 s) boundaries: the
  // on-disk word is 32 bits, wrap records restore the full value.
  const TraceOptions options = optionsFor("trace_rt_wrap");
  const Tick wrap = Tick{1} << 32;
  const std::vector<Tick> stamps = {100,         wrap - 1, wrap,
                                    wrap + 5000, 3 * wrap, 3 * wrap + 7};
  {
    TraceSession session(options, 0, 1);
    for (Tick ts : stamps) {
      session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, ts,
                  payloadUserMarker(scratch, 1, 0));
    }
    EXPECT_GE(session.stats().wrapRecords, 2u);
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo
  for (Tick expected : stamps) {
    const auto ev = reader.next();
    ASSERT_TRUE(ev);
    EXPECT_EQ(ev->localTs, expected);
  }
  EXPECT_FALSE(reader.next());
}

TEST(TraceRoundTrip, ExtendedPayloadLength) {
  ByteWriter scratch;
  const TraceOptions options = optionsFor("trace_rt_extended");
  const std::string longName(1000, 'm');
  {
    TraceSession session(options, 0, 1);
    session.cut(EventType::kMarkerDef, 0, 0, 0, 10,
                payloadMarkerDef(scratch, 42, longName));
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo
  const auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kMarkerDef);
  ByteReader payload = ev->payloadReader();
  EXPECT_EQ(payload.u32(), 42u);
  EXPECT_EQ(payload.lstring(), longName);
}

TEST(TraceSession, NonMonotonicTimestampRejected) {
  ByteWriter scratch;
  const TraceOptions options = optionsFor("trace_rt_monotonic");
  TraceSession session(options, 0, 1);
  session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 100,
              payloadUserMarker(scratch, 1, 0));
  EXPECT_THROW(session.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 99,
                           payloadUserMarker(scratch, 1, 0)),
               UsageError);
}

TEST(TraceSession, ClassMaskSuppressesEvents) {
  ByteWriter scratch;
  TraceOptions options = optionsFor("trace_rt_mask");
  options.enabledClasses = TraceOptions::classBit(EventClass::kMpi);
  {
    TraceSession session(options, 0, 1);
    // Dispatch class: suppressed.
    session.cut(EventType::kThreadDispatch, 0, 0, 0, 10,
                payloadThreadDispatch(scratch, -1, 0));
    session.cut(EventType::kMpiSend, kFlagBegin, 0, 0, 20,
                payloadMpiSend(scratch, 1, 0, 8, 1, 0));  // MPI class: kept
    // Clock class: suppressed.
    session.cut(EventType::kGlobalClock, 0, 0, 0, 30,
                payloadGlobalClock(scratch, 30, 30));
    EXPECT_EQ(session.stats().eventsSuppressed, 2u);
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo (control, always cut)
  const auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->type, EventType::kMpiSend);
  EXPECT_FALSE(reader.next());
}

TEST(TraceSession, DelayedStartTracesOnlyASection) {
  ByteWriter scratch;
  TraceOptions options = optionsFor("trace_rt_delayed");
  options.startEnabled = false;  // Section 2.1: delay trace generation
  {
    TraceSession session(options, 0, 1);
    session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 10,
                payloadUserMarker(scratch, 1, 0));  // before traceOn: dropped
    session.traceOn();
    session.cut(EventType::kUserMarker, kFlagEnd, 0, 0, 20,
                payloadUserMarker(scratch, 1, 0));
    session.traceOff();
    session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 30,
                payloadUserMarker(scratch, 2, 0));  // after traceOff: dropped
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  reader.next();  // NodeInfo
  const auto ev = reader.next();
  ASSERT_TRUE(ev);
  EXPECT_EQ(ev->localTs, 20u);
  EXPECT_FALSE(reader.next());
}

TEST(TraceSession, BufferFlushesWhenFull) {
  ByteWriter scratch;
  TraceOptions options = optionsFor("trace_rt_flush");
  options.bufferSizeBytes = 4096;  // minimum
  {
    TraceSession session(options, 0, 1);
    for (int i = 0; i < 2000; ++i) {
      session.cut(EventType::kUserMarker, kFlagBegin, 0, 0,
                  static_cast<Tick>(i), payloadUserMarker(scratch, 1, 0));
    }
    EXPECT_GT(session.stats().bufferFlushes, 5u);
    session.close();
  }
  TraceFileReader reader(TraceSession::traceFilePath(options.filePrefix, 0));
  std::uint64_t count = 0;
  while (reader.next()) ++count;
  EXPECT_EQ(count, 2001u);  // 2000 markers + NodeInfo
}

TEST(TraceSession, StatsCountEventsAndBytes) {
  ByteWriter scratch;
  const TraceOptions options = optionsFor("trace_rt_stats");
  TraceSession session(options, 0, 2);
  session.cut(EventType::kUserMarker, kFlagBegin, 0, 0, 5,
              payloadUserMarker(scratch, 3, 0xabc));
  const TraceSessionStats& s = session.stats();
  EXPECT_EQ(s.eventsCut, 2u);  // NodeInfo + marker
  EXPECT_EQ(s.eventsSuppressed, 0u);
  session.close();
}

TEST(TraceReader, RejectsGarbageFile) {
  const std::string path = tempPrefix("trace_rt_garbage.utr");
  writeWholeFile(path, std::string("not a trace file at all, sorry"));
  EXPECT_THROW(TraceFileReader reader(path), FormatError);
}

}  // namespace
}  // namespace ute
