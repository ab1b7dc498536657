// The v2 columnar frame codec, hammered from three sides:
//   - property round-trip: random frames (seeded ute::Rng, so failures
//     replay) encode to v2 and decode back to the exact original;
//   - varint/zigzag edge cases, including truncated and over-long input
//     (the UBSan CI lane runs these too — the codec must be clean under
//     -fsanitize=undefined, which is why zigzag is all-unsigned);
//   - fuzz: every truncation of a valid payload and single-bit flips
//     must either throw FormatError or decode to *some* frame — never
//     crash, hang, or read out of bounds.
// Cross-version guarantees (a v1 file and a v2 file of the same records
// decode identically) are covered at writer/reader level below.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <limits>
#include <optional>

#include "interval/standard_profile.h"
#include "slog/slog_codec.h"
#include "slog/slog_reader.h"
#include "slog/slog_writer.h"
#include "support/errors.h"
#include "support/rng.h"

#include <unistd.h>

namespace ute {
namespace {

bool operator==(const SlogInterval& a, const SlogInterval& b) {
  return a.stateId == b.stateId && a.bebits == b.bebits &&
         a.pseudo == b.pseudo && a.start == b.start && a.dura == b.dura &&
         a.node == b.node && a.cpu == b.cpu && a.thread == b.thread;
}

bool operator==(const SlogArrow& a, const SlogArrow& b) {
  return a.srcNode == b.srcNode && a.srcThread == b.srcThread &&
         a.sendTime == b.sendTime && a.dstNode == b.dstNode &&
         a.dstThread == b.dstThread && a.recvTime == b.recvTime &&
         a.bytes == b.bytes;
}

std::string tempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

TEST(SlogCodec, VarintEdgeValuesRoundTrip) {
  const std::uint64_t values[] = {
      0,    1,     127,        128,        16383,    16384,
      ~0ull >> 1,  ~0ull,      0x80808080, 1ull << 63};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    putVarint(buf, v);
    ASSERT_LE(buf.size(), 10u);
    std::size_t pos = 0;
    EXPECT_EQ(getVarint(buf, pos), v) << v;
    EXPECT_EQ(pos, buf.size());
  }
  // Encoded sizes pin the LEB128 grouping.
  std::vector<std::uint8_t> buf;
  putVarint(buf, 127);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  putVarint(buf, 128);
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  putVarint(buf, ~0ull);
  EXPECT_EQ(buf.size(), 10u);
}

TEST(SlogCodec, VarintRejectsTruncatedAndOverlong) {
  // Truncated: continuation bit set, no next byte.
  for (const std::uint64_t v :
       {std::uint64_t{300}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    std::vector<std::uint8_t> buf;
    putVarint(buf, v);
    for (std::size_t cut = 0; cut < buf.size(); ++cut) {
      std::size_t pos = 0;
      EXPECT_THROW(getVarint(std::span(buf.data(), cut), pos), FormatError);
    }
  }
  // Over-long: 11 continuation bytes can never be a valid u64.
  const std::vector<std::uint8_t> overlong(11, 0x80);
  std::size_t pos = 0;
  EXPECT_THROW(getVarint(overlong, pos), FormatError);
  // A 10th byte with more than the single remaining payload bit set
  // encodes > 64 bits.
  std::vector<std::uint8_t> wide(9, 0x80);
  wide.push_back(0x02);
  pos = 0;
  EXPECT_THROW(getVarint(wide, pos), FormatError);
}

TEST(SlogCodec, ZigzagIsAnInvolutionAtTheEdges) {
  const std::int64_t values[] = {0,  -1, 1,  -2, 2,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
  }
  // Small magnitudes stay small — the property delta encoding relies on.
  EXPECT_EQ(zigzagEncode(0), 0u);
  EXPECT_EQ(zigzagEncode(-1), 1u);
  EXPECT_EQ(zigzagEncode(1), 2u);
  EXPECT_EQ(zigzagEncode(-2), 3u);
}

SlogInterval randomInterval(Rng& rng) {
  SlogInterval r;
  // Mix small-cardinality (dictionary-friendly) and wide draws so both
  // encoder paths run.
  r.stateId = rng.below(2) == 0 ? static_cast<std::uint32_t>(rng.below(4))
                                : static_cast<std::uint32_t>(rng.next());
  r.bebits = static_cast<std::uint8_t>(rng.below(4));
  r.pseudo = rng.below(8) == 0;
  r.start = rng.next() >> static_cast<int>(rng.below(40));
  r.dura = rng.next() >> static_cast<int>(rng.below(50));
  r.node = static_cast<NodeId>(static_cast<std::int32_t>(rng.next()));
  r.cpu = static_cast<std::int32_t>(rng.next());
  r.thread =
      static_cast<LogicalThreadId>(static_cast<std::int32_t>(rng.next()));
  return r;
}

SlogArrow randomArrow(Rng& rng) {
  SlogArrow a;
  a.srcNode = static_cast<NodeId>(rng.below(64));
  a.srcThread = static_cast<LogicalThreadId>(
      static_cast<std::int32_t>(rng.next()));
  a.sendTime = rng.next() >> static_cast<int>(rng.below(30));
  a.dstNode = static_cast<NodeId>(static_cast<std::int32_t>(rng.next()));
  a.dstThread = static_cast<LogicalThreadId>(rng.below(8));
  a.recvTime = rng.next() >> static_cast<int>(rng.below(30));
  a.bytes = static_cast<std::uint32_t>(rng.next());
  return a;
}

/// The property: encode(v2) then decode == identity, for arbitrary
/// record mixes (empty, intervals only, arrows only, both, extremes).
TEST(SlogCodec, RandomFramesRoundTripExactly) {
  Rng rng(20260809);
  ColumnarScratch scratch;  // shared by every round, as a writer's is
  for (int round = 0; round < 200; ++round) {
    SlogFrameData frame;
    const std::size_t nIntervals =
        round % 7 == 0 ? 0 : static_cast<std::size_t>(rng.below(300));
    const std::size_t nArrows =
        round % 5 == 0 ? 0 : static_cast<std::size_t>(rng.below(100));
    for (std::size_t i = 0; i < nIntervals; ++i) {
      frame.intervals.push_back(randomInterval(rng));
    }
    for (std::size_t i = 0; i < nArrows; ++i) {
      frame.arrows.push_back(randomArrow(rng));
    }
    std::vector<std::uint8_t> payload;
    encodeColumnarFrame(frame.intervals, frame.arrows, payload, scratch);

    SlogFrameData decoded;
    decodeColumnarFrame(payload, decoded, scratch);
    ASSERT_EQ(decoded.intervals.size(), frame.intervals.size())
        << "round " << round;
    ASSERT_EQ(decoded.arrows.size(), frame.arrows.size()) << "round " << round;
    for (std::size_t i = 0; i < frame.intervals.size(); ++i) {
      ASSERT_TRUE(decoded.intervals[i] == frame.intervals[i])
          << "round " << round << " interval " << i;
    }
    for (std::size_t i = 0; i < frame.arrows.size(); ++i) {
      ASSERT_TRUE(decoded.arrows[i] == frame.arrows[i])
          << "round " << round << " arrow " << i;
    }

    // Determinism: re-encoding the decoded frame, with a scratch that
    // has seen nothing, reproduces the bytes.
    std::vector<std::uint8_t> again;
    ColumnarScratch fresh;
    encodeColumnarFrame(decoded.intervals, decoded.arrows, again, fresh);
    EXPECT_EQ(again, payload) << "round " << round;
  }
}

TEST(SlogCodec, EmptyFrameIsTwoZeroCounts) {
  std::vector<std::uint8_t> payload;
  ColumnarScratch scratch;
  encodeColumnarFrame({}, {}, payload, scratch);
  EXPECT_EQ(payload, (std::vector<std::uint8_t>{0, 0}));
  SlogFrameData decoded;
  decodeColumnarFrame(payload, decoded, scratch);
  EXPECT_TRUE(decoded.intervals.empty());
  EXPECT_TRUE(decoded.arrows.empty());
}

/// A representative frame payload for the fuzz sweeps: enough records
/// for every column kind (delta timestamps, dictionary-friendly ids,
/// zigzag lanes) to appear.
std::vector<std::uint8_t> fuzzPayload() {
  Rng rng(77);
  SlogFrameData frame;
  for (int i = 0; i < 64; ++i) frame.intervals.push_back(randomInterval(rng));
  for (int i = 0; i < 24; ++i) frame.arrows.push_back(randomArrow(rng));
  std::vector<std::uint8_t> payload;
  ColumnarScratch scratch;
  encodeColumnarFrame(frame.intervals, frame.arrows, payload, scratch);
  return payload;
}

TEST(SlogCodec, EveryTruncationThrowsFormatError) {
  const std::vector<std::uint8_t> payload = fuzzPayload();
  ColumnarScratch scratch;
  for (std::size_t n = 0; n < payload.size(); ++n) {
    SlogFrameData out;
    EXPECT_THROW(
        decodeColumnarFrame(std::span(payload.data(), n), out, scratch),
        FormatError)
        << "truncated to " << n << " of " << payload.size();
  }
}

TEST(SlogCodec, BitFlipsNeverCrash) {
  const std::vector<std::uint8_t> payload = fuzzPayload();
  ColumnarScratch scratch;
  std::size_t threw = 0;
  for (std::size_t byte = 0; byte < payload.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant = payload;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      SlogFrameData out;
      try {
        decodeColumnarFrame(mutant, out, scratch);
        // A flip inside a value lane legitimately decodes to a different
        // frame; the contract is typed failure or a well-formed result.
      } catch (const FormatError&) {
        ++threw;
      }
    }
  }
  // Structure bytes (counts, block headers, lengths) must be validated,
  // so a healthy fraction of flips is rejected outright.
  EXPECT_GT(threw, payload.size());
}

TEST(SlogCodec, CountBeyondItsColumnBlockIsRejectedBeforeSizing) {
  // 200 claimed intervals; an unknown column pads the payload so the
  // frame-level count check passes, and column 0 then offers one byte.
  std::vector<std::uint8_t> payload;
  putVarint(payload, 200);
  putVarint(payload, 0);
  payload.push_back(15);  // unknown interval column: skipped by length
  payload.push_back(1);
  putVarint(payload, 220);
  payload.insert(payload.end(), 220, 0);
  payload.insert(payload.end(), {0, 1, 1, 7});  // column 0: 1-byte block
  for (const std::uint8_t encoding : {1, 2, 3}) {
    payload[payload.size() - 3] = encoding;
    ColumnarScratch scratch;
    SlogFrameData out;
    EXPECT_THROW(decodeColumnarFrame(payload, out, scratch), FormatError)
        << "encoding " << int{encoding};
    EXPECT_EQ(scratch.lanes[0].capacity(), 0u) << "encoding " << int{encoding};
  }
}

/// A frame whose columns defeat the dictionary (wide values), then one
/// whose columns take it (few values): encoding them in turn through one
/// scratch gives the bytes a scratch that has seen nothing gives.
TEST(SlogCodec, ReusedScratchEncodesLikeAFreshOne) {
  Rng rng(4242);
  SlogFrameData large;
  for (int i = 0; i < 4000; ++i) {
    SlogInterval r = randomInterval(rng);
    r.stateId = static_cast<std::uint32_t>(rng.next());
    large.intervals.push_back(r);
  }
  for (int i = 0; i < 900; ++i) large.arrows.push_back(randomArrow(rng));
  SlogFrameData small;
  for (int i = 0; i < 5; ++i) {
    SlogInterval r;
    r.stateId = static_cast<std::uint32_t>(i % 2);
    r.start = static_cast<Tick>(i) * 10;
    r.dura = 3;
    small.intervals.push_back(r);
  }
  small.arrows.push_back(SlogArrow{});

  const auto encode = [](const SlogFrameData& f, ColumnarScratch& scratch) {
    std::vector<std::uint8_t> out;
    encodeColumnarFrame(f.intervals, f.arrows, out, scratch);
    return out;
  };
  ColumnarScratch fresh1, fresh2;
  const std::vector<std::uint8_t> smallBytes = encode(small, fresh1);
  const std::vector<std::uint8_t> largeBytes = encode(large, fresh2);
  ColumnarScratch reused;
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(encode(large, reused), largeBytes) << "round " << round;
    EXPECT_EQ(encode(small, reused), smallBytes) << "round " << round;
  }
  SlogFrameData decoded;
  decodeColumnarFrame(largeBytes, decoded, reused);
  decodeColumnarFrame(smallBytes, decoded, reused);
  EXPECT_EQ(decoded.intervals.size(), small.intervals.size());
  EXPECT_EQ(encode(decoded, reused), smallBytes);
}

/// Lanes a good frame left in the scratch must not stand in for a column
/// a later, corrupt frame lacks.
TEST(SlogCodec, CorruptPayloadAfterAGoodOneStillThrows) {
  const std::vector<std::uint8_t> good = fuzzPayload();
  // One interval, columns 0..5 present, column 6 (thread) missing.
  std::vector<std::uint8_t> missing = {1, 0};
  for (std::uint8_t id = 0; id < 6; ++id) {
    missing.insert(missing.end(), {id, 1, 1, 0});
  }
  ColumnarScratch scratch;
  SlogFrameData out;
  for (int round = 0; round < 2; ++round) {
    decodeColumnarFrame(good, out, scratch);
    EXPECT_EQ(out.intervals.size(), 64u);
    EXPECT_THROW(decodeColumnarFrame(missing, out, scratch), FormatError);
    EXPECT_THROW(
        decodeColumnarFrame(std::span(good.data(), good.size() - 1), out,
                            scratch),
        FormatError);
  }
}

// --- differential oracle: the encoder against the two-buffer reference ----

/// The column encoder as first written: every column encoded in full as
/// plain varints and, while it has at most 64 distinct values, as a
/// dictionary, then the smaller kept (plain on a tie). The size-first
/// encoder must produce exactly these bytes.
namespace reference {

std::vector<std::uint8_t> plainBlock(const std::vector<std::uint64_t>& lane,
                                     bool isTime) {
  std::vector<std::uint8_t> block;
  for (std::size_t i = 0; i < lane.size(); ++i) {
    putVarint(block, !isTime || i == 0
                         ? lane[i]
                         : zigzagEncode(static_cast<std::int64_t>(
                               lane[i] - lane[i - 1])));
  }
  return block;
}

/// The dictionary block, or nothing when the lane is empty or has more
/// than 64 distinct values.
std::optional<std::vector<std::uint8_t>> dictBlock(
    const std::vector<std::uint64_t>& lane) {
  std::vector<std::uint64_t> dict;
  std::vector<std::uint32_t> indexes;
  for (const std::uint64_t v : lane) {
    const auto it = std::find(dict.begin(), dict.end(), v);
    if (it == dict.end()) {
      if (dict.size() >= 64) return std::nullopt;
      indexes.push_back(static_cast<std::uint32_t>(dict.size()));
      dict.push_back(v);
    } else {
      indexes.push_back(static_cast<std::uint32_t>(it - dict.begin()));
    }
  }
  if (lane.empty()) return std::nullopt;
  std::vector<std::uint8_t> block;
  putVarint(block, dict.size());
  for (const std::uint64_t v : dict) putVarint(block, v);
  for (const std::uint32_t idx : indexes) putVarint(block, idx);
  return block;
}

void emitColumn(std::uint8_t id, bool isTime,
                const std::vector<std::uint64_t>& lane,
                std::vector<std::uint8_t>& out) {
  std::vector<std::uint8_t> block = plainBlock(lane, isTime);
  std::uint8_t encoding = isTime ? 2 : 1;
  if (!isTime) {
    std::optional<std::vector<std::uint8_t>> dict = dictBlock(lane);
    if (dict && dict->size() < block.size()) {
      encoding = 3;
      block = std::move(*dict);
    }
  }
  out.push_back(id);
  out.push_back(encoding);
  putVarint(out, block.size());
  out.insert(out.end(), block.begin(), block.end());
}

/// Each column's lane, in column-id order (interval ids 0..6, then
/// arrow ids 16..22), as the encoder sees it.
std::vector<std::uint64_t> intervalLane(const SlogFrameData& f, int col) {
  std::vector<std::uint64_t> lane;
  for (const SlogInterval& r : f.intervals) {
    const std::uint64_t fields[] = {
        r.stateId,
        static_cast<std::uint64_t>(r.bebits) | (r.pseudo ? 0x100ull : 0ull),
        r.start,
        r.dura,
        zigzagEncode(r.node),
        zigzagEncode(r.cpu),
        zigzagEncode(r.thread)};
    lane.push_back(fields[col]);
  }
  return lane;
}

std::vector<std::uint64_t> arrowLane(const SlogFrameData& f, int col) {
  std::vector<std::uint64_t> lane;
  for (const SlogArrow& a : f.arrows) {
    const std::uint64_t fields[] = {
        zigzagEncode(a.srcNode),   zigzagEncode(a.srcThread), a.sendTime,
        zigzagEncode(a.dstNode),   zigzagEncode(a.dstThread), a.recvTime,
        a.bytes};
    lane.push_back(fields[col]);
  }
  return lane;
}

constexpr bool kIntervalTime[7] = {false, false, true, false,
                                   false, false, false};
constexpr bool kArrowTime[7] = {false, false, true, false,
                                false, true, false};

std::vector<std::uint8_t> encodeFrame(const SlogFrameData& f) {
  std::vector<std::uint8_t> out;
  putVarint(out, f.intervals.size());
  putVarint(out, f.arrows.size());
  if (!f.intervals.empty()) {
    for (int c = 0; c < 7; ++c) {
      emitColumn(static_cast<std::uint8_t>(c), kIntervalTime[c],
                 intervalLane(f, c), out);
    }
  }
  if (!f.arrows.empty()) {
    for (int c = 0; c < 7; ++c) {
      emitColumn(static_cast<std::uint8_t>(16 + c), kArrowTime[c],
                 arrowLane(f, c), out);
    }
  }
  return out;
}

}  // namespace reference

/// The largest lane value each column can hold: 32-bit fields (zigzag
/// ids included) below 2^32, flags below 2^9, times the full 64 bits.
constexpr std::uint64_t kU32 = 0xffffffffull;
constexpr std::uint64_t kU64 = ~0ull;
constexpr std::uint64_t kIntervalMax[7] = {kU32, 0x1ff, kU64, kU64,
                                           kU32, kU32,  kU32};
constexpr std::uint64_t kArrowMax[7] = {kU32, kU32, kU64, kU32,
                                        kU32, kU64, kU32};

/// A frame whose column lanes are exactly the given values: lane c of
/// `intervalLanes` becomes column c, of `arrowLanes` column 16 + c.
SlogFrameData frameFromLanes(
    const std::array<std::vector<std::uint64_t>, 7>& intervalLanes,
    const std::array<std::vector<std::uint64_t>, 7>& arrowLanes) {
  SlogFrameData f;
  const auto id = [](std::uint64_t v) {
    return static_cast<std::int32_t>(zigzagDecode(v));
  };
  for (std::size_t i = 0; i < intervalLanes[0].size(); ++i) {
    SlogInterval r;
    r.stateId = static_cast<std::uint32_t>(intervalLanes[0][i]);
    r.bebits = static_cast<std::uint8_t>(intervalLanes[1][i]);
    r.pseudo = (intervalLanes[1][i] & 0x100) != 0;
    r.start = intervalLanes[2][i];
    r.dura = intervalLanes[3][i];
    r.node = static_cast<NodeId>(id(intervalLanes[4][i]));
    r.cpu = id(intervalLanes[5][i]);
    r.thread = static_cast<LogicalThreadId>(id(intervalLanes[6][i]));
    f.intervals.push_back(r);
  }
  for (std::size_t i = 0; i < arrowLanes[0].size(); ++i) {
    SlogArrow a;
    a.srcNode = static_cast<NodeId>(id(arrowLanes[0][i]));
    a.srcThread = static_cast<LogicalThreadId>(id(arrowLanes[1][i]));
    a.sendTime = arrowLanes[2][i];
    a.dstNode = static_cast<NodeId>(id(arrowLanes[3][i]));
    a.dstThread = static_cast<LogicalThreadId>(id(arrowLanes[4][i]));
    a.recvTime = arrowLanes[5][i];
    a.bytes = static_cast<std::uint32_t>(arrowLanes[6][i]);
    f.arrows.push_back(a);
  }
  return f;
}

/// A value of random bit width, at most `max`.
std::uint64_t anyWidth(Rng& rng, std::uint64_t max) {
  const std::uint64_t v = rng.next() >> rng.below(64);
  return max == kU64 ? v : v % (max + 1);
}

/// `n` values (n >= k) holding exactly `k` distinct ones, all at most
/// `max`, in random order.
std::vector<std::uint64_t> laneWithDistinct(Rng& rng, std::size_t n,
                                            std::size_t k,
                                            std::uint64_t max) {
  std::vector<std::uint64_t> pool;
  while (pool.size() < k) {
    const std::uint64_t v = anyWidth(rng, max);
    if (std::find(pool.begin(), pool.end(), v) == pool.end()) {
      pool.push_back(v);
    }
  }
  std::vector<std::uint64_t> lane = pool;
  while (lane.size() < n) lane.push_back(pool[rng.below(k)]);
  for (std::size_t i = lane.size(); i > 1; --i) {
    std::swap(lane[i - 1], lane[rng.below(i)]);
  }
  return lane;
}

/// Encodes `f` after a prefix already in the output, through a scratch
/// shared across calls (as a writer's is), and checks the appended bytes
/// against the reference encoder.
void expectMatchesReference(const SlogFrameData& f, ColumnarScratch& scratch,
                            const std::string& what) {
  const std::vector<std::uint8_t> prefix = {0xab, 0xcd};
  std::vector<std::uint8_t> out = prefix;
  encodeColumnarFrame(f.intervals, f.arrows, out, scratch);
  ASSERT_GE(out.size(), prefix.size()) << what;
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin())) << what;
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin() + 2, out.end()),
            reference::encodeFrame(f))
      << what;
}

constexpr int kOracleFrames = 200;

TEST(SlogCodecOracle, DistinctValueCountsAroundTheDictionaryLimit) {
  Rng rng(1401);
  ColumnarScratch scratch;
  for (const std::size_t k : {0, 1, 63, 64, 65}) {
    for (int round = 0; round < kOracleFrames; ++round) {
      const std::size_t n = k == 0 ? 0 : k + rng.below(200);
      std::array<std::vector<std::uint64_t>, 7> iv;
      std::array<std::vector<std::uint64_t>, 7> ar;
      for (int c = 0; c < 7; ++c) {
        iv[c] = laneWithDistinct(rng, n, k, kIntervalMax[c]);
        ar[c] = laneWithDistinct(rng, n / 2 + (k > 0 ? k : 0), k,
                                 kArrowMax[c]);
      }
      expectMatchesReference(frameFromLanes(iv, ar), scratch,
                             std::to_string(k) + " distinct, round " +
                                 std::to_string(round));
    }
  }
}

TEST(SlogCodecOracle, PlainDictionaryTiesGoToPlain) {
  // Small columns of 1- to 3-byte values whose dictionary block is
  // exactly as long as their plain block (e.g. three copies of one
  // 2-byte value: 6 bytes either way), searched for at random.
  Rng rng(1402);
  ColumnarScratch scratch;
  int ties = 0;
  for (int round = 0; round < kOracleFrames; ++round) {
    std::vector<std::uint64_t> lane;
    for (int attempt = 0; attempt < 100000; ++attempt) {
      const std::size_t k = 1 + rng.below(4);
      const std::size_t n = k + rng.below(12);
      std::vector<std::uint64_t> pool;
      for (std::size_t i = 0; i < k; ++i) {
        pool.push_back(std::uint64_t{1} << (7 * rng.below(3)) |
                       rng.below(128));
      }
      lane.clear();
      for (std::size_t i = 0; i < n; ++i) lane.push_back(pool[rng.below(k)]);
      const std::optional<std::vector<std::uint8_t>> dict =
          reference::dictBlock(lane);
      if (dict && dict->size() == reference::plainBlock(lane, false).size()) {
        break;
      }
      lane.clear();
    }
    ASSERT_FALSE(lane.empty()) << "no tie found, round " << round;
    ++ties;
    std::array<std::vector<std::uint64_t>, 7> iv;
    std::array<std::vector<std::uint64_t>, 7> ar;
    for (int c = 0; c < 7; ++c) {
      iv[c] = c == 0 ? lane
                     : laneWithDistinct(rng, lane.size(), 1, kIntervalMax[c]);
      ar[c] = c == 6 ? lane
                     : laneWithDistinct(rng, lane.size(), 1, kArrowMax[c]);
    }
    const SlogFrameData f = frameFromLanes(iv, ar);
    expectMatchesReference(f, scratch, "tie, round " + std::to_string(round));
    // Column 0 leads the payload (after two one-byte counts): plain.
    std::vector<std::uint8_t> out;
    encodeColumnarFrame(f.intervals, f.arrows, out, scratch);
    EXPECT_EQ(out[3], 1) << "tie, round " << round;
  }
  EXPECT_EQ(ties, kOracleFrames);
}

TEST(SlogCodecOracle, NegativeTimeDeltas) {
  Rng rng(1403);
  ColumnarScratch scratch;
  for (int round = 0; round < kOracleFrames; ++round) {
    const std::size_t n = 1 + rng.below(300);
    // Time columns wander both ways (sealed frames are in end-time
    // order, so starts can step back), sometimes by the whole range.
    const auto times = [&] {
      std::vector<std::uint64_t> lane = {anyWidth(rng, kU64)};
      while (lane.size() < n) {
        const std::uint64_t step = anyWidth(rng, kU64) >> rng.below(64);
        lane.push_back(rng.below(2) == 0 ? lane.back() - step
                                         : lane.back() + step);
      }
      return lane;
    };
    std::array<std::vector<std::uint64_t>, 7> iv;
    std::array<std::vector<std::uint64_t>, 7> ar;
    for (int c = 0; c < 7; ++c) {
      iv[c] = c == 2
                  ? times()
                  : laneWithDistinct(rng, n, 1 + rng.below(n), kIntervalMax[c]);
      ar[c] = c == 2 || c == 5
                  ? times()
                  : laneWithDistinct(rng, n, 1 + rng.below(n), kArrowMax[c]);
    }
    expectMatchesReference(frameFromLanes(iv, ar), scratch,
                           "round " + std::to_string(round));
  }
}

TEST(SlogCodecOracle, VarintWidthBoundaries) {
  // 0, every 2^(7k)-1 / 2^(7k) pair (the values where a varint gains a
  // byte), 2^63 and UINT64_MAX, in every column that can hold them.
  std::vector<std::uint64_t> edges = {0, std::uint64_t{1} << 63, kU64};
  for (int k = 1; k <= 9; ++k) {
    edges.push_back((std::uint64_t{1} << (7 * k)) - 1);
    edges.push_back(std::uint64_t{1} << (7 * k));
  }
  Rng rng(1404);
  ColumnarScratch scratch;
  const auto lane = [&](std::size_t n, std::uint64_t max) {
    std::vector<std::uint64_t> values;
    while (values.size() < n) {
      const std::uint64_t v = edges[rng.below(edges.size())];
      if (v <= max) values.push_back(v);
    }
    return values;
  };
  for (int round = 0; round < kOracleFrames; ++round) {
    const std::size_t n = 1 + rng.below(300);
    const std::size_t m = 1 + rng.below(300);
    std::array<std::vector<std::uint64_t>, 7> iv;
    std::array<std::vector<std::uint64_t>, 7> ar;
    for (int c = 0; c < 7; ++c) {
      iv[c] = lane(n, kIntervalMax[c]);
      ar[c] = lane(m, kArrowMax[c]);
    }
    expectMatchesReference(frameFromLanes(iv, ar), scratch,
                           "round " + std::to_string(round));
  }
}

TEST(SlogCodecOracle, IntervalsOnlyArrowsOnlyAndEmptyFrames) {
  Rng rng(1405);
  ColumnarScratch scratch;
  for (int round = 0; round < 3 * kOracleFrames; ++round) {
    SlogFrameData f;
    const std::size_t n = 1 + rng.below(300);
    if (round % 3 == 0) {
      for (std::size_t i = 0; i < n; ++i) {
        f.intervals.push_back(randomInterval(rng));
      }
    } else if (round % 3 == 1) {
      for (std::size_t i = 0; i < n; ++i) f.arrows.push_back(randomArrow(rng));
    }
    expectMatchesReference(f, scratch, "round " + std::to_string(round));
  }
}

// --- cross-version: the same records through the v1 and v2 writers ---------

std::string writeSlogFile(const std::string& name, std::uint32_t version) {
  const std::string path = tempPath(name);
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.recordsPerFrame = 64;
  options.formatVersion = version;
  SlogWriter w(path, options, profile,
               {{0, 1000, 10000, 0, 0, ThreadType::kMpi},
                {1, 1001, 10001, 1, 0, ThreadType::kMpi}},
               {});
  for (int i = 0; i < 400; ++i) {
    ByteWriter extra;
    extra.u64(static_cast<Tick>(i) * kMs);  // origStart
    ByteWriter body;
    encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                     static_cast<Tick>(i) * kMs, kMs / 2, 0, i % 2, 0,
                     extra.view());
    w.addRecord(RecordView::parse(body.view()));
  }
  w.close();
  return path;
}

TEST(SlogCodec, V1AndV2FilesDecodeIdentically) {
  const std::string v1 = writeSlogFile("codec_x_v1.slog", 1);
  const std::string v2 = writeSlogFile("codec_x_v2.slog", 2);
  SlogReader r1(v1);
  SlogReader r2(v2);
  EXPECT_EQ(r1.formatVersion(), 1u);
  EXPECT_EQ(r2.formatVersion(), 2u);
  ASSERT_EQ(r1.frameIndex().size(), r2.frameIndex().size());
  std::uint64_t v1Bytes = 0;
  std::uint64_t v2Bytes = 0;
  for (std::size_t f = 0; f < r1.frameIndex().size(); ++f) {
    const SlogFrameIndexEntry& e1 = r1.frameIndex()[f];
    const SlogFrameIndexEntry& e2 = r2.frameIndex()[f];
    EXPECT_EQ(e1.records, e2.records);
    EXPECT_EQ(e1.timeStart, e2.timeStart);
    EXPECT_EQ(e1.timeEnd, e2.timeEnd);
    EXPECT_EQ(e1.encoding,
              static_cast<std::uint32_t>(FrameEncoding::kRow));
    EXPECT_EQ(e2.encoding,
              static_cast<std::uint32_t>(FrameEncoding::kColumnar));
    v1Bytes += e1.sizeBytes;
    v2Bytes += e2.sizeBytes;
    const SlogFramePtr f1 = r1.readFrame(f);
    const SlogFramePtr f2 = r2.readFrame(f);
    ASSERT_EQ(f1->intervals.size(), f2->intervals.size());
    ASSERT_EQ(f1->arrows.size(), f2->arrows.size());
    for (std::size_t i = 0; i < f1->intervals.size(); ++i) {
      ASSERT_TRUE(f1->intervals[i] == f2->intervals[i]);
    }
    for (std::size_t i = 0; i < f1->arrows.size(); ++i) {
      ASSERT_TRUE(f1->arrows[i] == f2->arrows[i]);
    }
  }
  // The compression claim, on real merged records rather than noise.
  EXPECT_LE(static_cast<double>(v2Bytes), 0.6 * static_cast<double>(v1Bytes))
      << v2Bytes << " vs " << v1Bytes;
}

TEST(SlogCodec, WriterRejectsUnknownFormatVersion) {
  const Profile profile = makeStandardProfile();
  SlogOptions options;
  options.formatVersion = 3;
  EXPECT_THROW(SlogWriter(tempPath("codec_badver.slog"), options, profile,
                          {{0, 1000, 10000, 0, 0, ThreadType::kMpi}}, {}),
               UsageError);
  options.formatVersion = 0;
  EXPECT_THROW(SlogWriter(tempPath("codec_badver0.slog"), options, profile,
                          {{0, 1000, 10000, 0, 0, ThreadType::kMpi}}, {}),
               UsageError);
}

}  // namespace
}  // namespace ute
