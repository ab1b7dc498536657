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

#include <filesystem>
#include <limits>

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
