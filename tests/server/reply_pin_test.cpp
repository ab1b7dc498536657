// Byte pins of the query service's replies. processRequest() builds its
// replies in per-thread scratch buffers that outlive a request; these
// tests pin what those buffers may never change:
//   - the exact reply bytes of a fixed request list on the committed
//     golden_v2.slog, in both frame encodings, as FNV-1a checksums
//     (printed by a UTE_REGEN_GOLDEN=1 run of ReplyPins.*);
//   - that each reply is sized exactly once, before it is written;
//   - that a thread which served a large reply answers a small request
//     with the same bytes as a thread that never served anything.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "interval/field.h"
#include "server/protocol.h"

namespace ute {
namespace {

std::string goldenPath() {
  return std::string(UTE_TEST_DATA_DIR) + "/golden_v2.slog";
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

WindowQuery windowQuery(Tick t0, Tick t1) {
  WindowQuery q;
  q.t0 = t0;
  q.t1 = t1;
  return q;
}

/// The pinned request list: every frame-carrying op with and without
/// filters, the table ops, metrics at two bin counts, tail paging, and
/// typed error replies. Info is left out: its reply names the file path.
std::vector<std::pair<std::string, ByteWriter>> pinnedRequests() {
  const auto running = static_cast<std::uint32_t>(kRunningState);
  const auto send = static_cast<std::uint32_t>(EventType::kMpiSend);
  const auto recv = static_cast<std::uint32_t>(EventType::kMpiRecv);
  std::vector<std::pair<std::string, ByteWriter>> out;
  out.emplace_back("states", encodeTraceRequest(Opcode::kStates, 0));
  out.emplace_back("threads", encodeTraceRequest(Opcode::kThreads, 0));
  out.emplace_back("preview", encodeTraceRequest(Opcode::kPreview, 0));
  out.emplace_back("window whole run",
                   encodeWindowRequest(0, windowQuery(0, 300 * kMs)));
  WindowQuery q = windowQuery(50 * kMs, 120 * kMs);
  q.node = 1;
  out.emplace_back("window node", encodeWindowRequest(0, q));
  q = windowQuery(50 * kMs, 120 * kMs);
  q.thread = 0;
  out.emplace_back("window thread", encodeWindowRequest(0, q));
  q = windowQuery(10 * kMs, 200 * kMs);
  q.states = {running};
  out.emplace_back("window states", encodeWindowRequest(0, q));
  q = windowQuery(30 * kMs, 90 * kMs);
  q.node = 0;
  q.thread = 0;
  q.states = {send, recv, kMarkerStateBase + 3};
  out.emplace_back("window node thread states", encodeWindowRequest(0, q));
  q = windowQuery(30 * kMs, 90 * kMs);
  q.states = {999};
  out.emplace_back("window no match", encodeWindowRequest(0, q));
  out.emplace_back("frame-at 0", encodeFrameAtRequest(0, 0));
  out.emplace_back("frame-at 75ms", encodeFrameAtRequest(0, 75 * kMs));
  out.emplace_back("frame-at 219ms", encodeFrameAtRequest(0, 219 * kMs));
  out.emplace_back("summary whole run",
                   encodeSummaryRequest(0, 0, 300 * kMs));
  out.emplace_back("summary 40-60ms",
                   encodeSummaryRequest(0, 40 * kMs, 60 * kMs));
  out.emplace_back("metrics 60", encodeMetricsRequest(0, 60));
  out.emplace_back("metrics 240", encodeMetricsRequest(0, 240));
  out.emplace_back("tail-frames all", encodeTailFramesRequest(0, 0, 0));
  out.emplace_back("tail-frames 2 from 2", encodeTailFramesRequest(0, 2, 2));
  out.emplace_back("tail-frames past end",
                   encodeTailFramesRequest(0, 100, 1));
  out.emplace_back("error inverted window",
                   encodeWindowRequest(0, windowQuery(90 * kMs, 30 * kMs)));
  out.emplace_back("error window outside run",
                   encodeWindowRequest(0, windowQuery(500 * kMs, 600 * kMs)));
  out.emplace_back("error frame-at outside run",
                   encodeFrameAtRequest(0, 500 * kMs));
  out.emplace_back("error unknown trace", encodeTraceRequest(Opcode::kStates, 7));
  return out;
}

/// Checksums recorded before the reply path moved to reused buffers.
constexpr std::uint64_t kRowPins[] = {
    2387539256948117916ull,   // states
    6259085714626265131ull,   // threads
    7943731022786557522ull,   // preview
    140399052251822500ull,    // window whole run
    10495025180196549492ull,  // window node
    1258759351511571400ull,   // window thread
    16086641538803013026ull,  // window states
    6384031906884558511ull,   // window node thread states
    16617665787430540299ull,  // window no match
    15921872455559820626ull,  // frame-at 0
    16249045285807476351ull,  // frame-at 75ms
    17779456954135863164ull,  // frame-at 219ms
    16374938635313100079ull,  // summary whole run
    14333838773996698836ull,  // summary 40-60ms
    16105109153811762762ull,  // metrics 60
    14534271893151154460ull,  // metrics 240
    14070069936907864675ull,  // tail-frames all
    12574303370702925714ull,  // tail-frames 2 from 2
    7444593616239728346ull,   // tail-frames past end
    3982400693572414243ull,   // error inverted window
    5170940597107010433ull,   // error window outside run
    7862128980729997061ull,   // error frame-at outside run
    3626473840246083167ull,   // error unknown trace
};
constexpr std::uint64_t kColumnarPins[] = {
    2387539256948117916ull,   // states
    6259085714626265131ull,   // threads
    7943731022786557522ull,   // preview
    12467673653488960858ull,  // window whole run
    7838370162048713914ull,   // window node
    16931499792871683755ull,  // window thread
    2994297133244375469ull,   // window states
    35969203752379532ull,     // window node thread states
    8313108389916214904ull,   // window no match
    11530108906781496267ull,  // frame-at 0
    10392544337500171420ull,  // frame-at 75ms
    10109793843907485527ull,  // frame-at 219ms
    16374938635313100079ull,  // summary whole run
    14333838773996698836ull,  // summary 40-60ms
    16105109153811762762ull,  // metrics 60
    14534271893151154460ull,  // metrics 240
    2315100046956256479ull,   // tail-frames all
    4081482010740243787ull,   // tail-frames 2 from 2
    7444593616239728346ull,   // tail-frames past end
    3982400693572414243ull,   // error inverted window
    5170940597107010433ull,   // error window outside run
    7862128980729997061ull,   // error frame-at outside run
    3626473840246083167ull,   // error unknown trace
};

void checkPins(FrameEncoding encoding, std::span<const std::uint64_t> pins) {
  TraceService service({goldenPath()});
  ConnectionContext ctx;
  ctx.frameEncoding = encoding;
  const auto requests = pinnedRequests();
  const bool regen = std::getenv("UTE_REGEN_GOLDEN") != nullptr;
  if (!regen) {
    ASSERT_EQ(requests.size(), pins.size());
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::vector<std::uint8_t> reply =
        processRequest(service, requests[i].second.view(), ctx).response;
    // Each reply is sized exactly before it is written.
    EXPECT_EQ(reply.capacity(), reply.size()) << requests[i].first;
    const std::uint64_t got = fnv1a(reply);
    if (regen) {
      std::printf("    %lluull,  // %s\n",
                  static_cast<unsigned long long>(got),
                  requests[i].first.c_str());
      continue;
    }
    EXPECT_EQ(got, pins[i]) << requests[i].first << " ("
                            << frameEncodingName(encoding) << ")";
  }
  if (regen) GTEST_SKIP() << "regeneration run: update the pinned checksums";
}

TEST(ReplyPins, RowRepliesMatchRecordedBytes) {
  checkPins(FrameEncoding::kRow, kRowPins);
}

TEST(ReplyPins, ColumnarRepliesMatchRecordedBytes) {
  checkPins(FrameEncoding::kColumnar, kColumnarPins);
}

/// Replies left out of the pins (they name the file or count live
/// state) are sized exactly too.
TEST(ReplyPins, UnpinnedRepliesAreSizedExactly) {
  TraceService service({goldenPath()});
  std::vector<std::pair<std::string, ByteWriter>> requests;
  requests.emplace_back("hello", encodeHelloRequest());
  requests.emplace_back("legacy hello", encodeLegacyHelloRequest());
  requests.emplace_back("info", encodeTraceRequest(Opcode::kInfo, 0));
  requests.emplace_back("stats", encodeStatsRequest());
  requests.emplace_back("tail-metrics", encodeTailMetricsRequest(0));
  requests.emplace_back("shutdown", encodeShutdownRequest());
  for (const auto& [name, request] : requests) {
    ConnectionContext ctx;
    const std::vector<std::uint8_t> reply =
        processRequest(service, request.view(), ctx).response;
    ASSERT_FALSE(reply.empty()) << name;
    EXPECT_EQ(reply[0], 0) << name << " failed";
    EXPECT_EQ(reply.capacity(), reply.size()) << name;
  }
}

/// Replies to `requests` on a thread of their own, after `warmup`.
std::vector<std::vector<std::uint8_t>> repliesOnFreshThread(
    TraceService& service, FrameEncoding encoding,
    const std::vector<ByteWriter>& warmup,
    const std::vector<ByteWriter>& requests) {
  std::vector<std::vector<std::uint8_t>> replies;
  std::thread worker([&] {
    ConnectionContext ctx;
    ctx.frameEncoding = encoding;
    for (const ByteWriter& w : warmup) processRequest(service, w.view(), ctx);
    for (const ByteWriter& w : requests) {
      replies.push_back(processRequest(service, w.view(), ctx).response);
    }
  });
  worker.join();
  return replies;
}

TEST(ReplyPins, LargeReplyScratchDoesNotLeakIntoSmallReplies) {
  TraceService service({goldenPath()});
  WindowQuery big = windowQuery(0, 300 * kMs);
  std::vector<ByteWriter> warmup;
  warmup.push_back(encodeWindowRequest(0, big));
  big.states = {static_cast<std::uint32_t>(kRunningState), 1, 2, 3, 4, 5};
  warmup.push_back(encodeWindowRequest(0, big));
  warmup.push_back(encodeSummaryRequest(0, 0, 300 * kMs));
  warmup.push_back(encodeTailFramesRequest(0, 0, 0));
  warmup.push_back(encodeMetricsRequest(0, 240));

  WindowQuery small = windowQuery(100 * kMs, 101 * kMs);
  std::vector<ByteWriter> requests;
  requests.push_back(encodeWindowRequest(0, small));
  small.node = 1;
  requests.push_back(encodeWindowRequest(0, small));
  requests.push_back(encodeSummaryRequest(0, 100 * kMs, 101 * kMs));
  requests.push_back(encodeFrameAtRequest(0, 219 * kMs));
  requests.push_back(encodeTailFramesRequest(0, 1, 1));
  requests.push_back(encodeMetricsRequest(0, 60));
  requests.push_back(
      encodeWindowRequest(0, windowQuery(500 * kMs, 600 * kMs)));

  for (const FrameEncoding encoding :
       {FrameEncoding::kRow, FrameEncoding::kColumnar}) {
    const auto fresh = repliesOnFreshThread(service, encoding, {}, requests);
    const auto reused =
        repliesOnFreshThread(service, encoding, warmup, requests);
    ASSERT_EQ(fresh.size(), reused.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(fresh[i], reused[i])
          << "request " << i << " (" << frameEncodingName(encoding) << ")";
    }
  }
}

}  // namespace
}  // namespace ute
