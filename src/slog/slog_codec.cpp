#include "slog/slog_codec.h"

#include <array>
#include <bit>
#include <cstring>

#include "slog/kernels.h"
#include "support/bytes.h"
#include "support/errors.h"
#include "support/scratch.h"

namespace ute {

const char* frameEncodingName(FrameEncoding encoding) {
  switch (encoding) {
    case FrameEncoding::kRow: return "row";
    case FrameEncoding::kColumnar: return "columnar";
  }
  return "?";
}

void putVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t getVarint(std::span<const std::uint8_t> data,
                        std::size_t& pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 10; ++i) {
    if (pos >= data.size()) {
      throw FormatError("truncated varint at offset " + std::to_string(pos));
    }
    const std::uint8_t b = data[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      // The 10th byte carries bits 63..69; anything above bit 63 means
      // the encoding does not fit in u64.
      if (i == 9 && b > 1) {
        throw FormatError("over-long varint at offset " +
                          std::to_string(pos - 1));
      }
      return v;
    }
  }
  throw FormatError("varint longer than 10 bytes at offset " +
                    std::to_string(pos));
}

namespace {

/// Column ids. Interval columns are < 16, arrow columns >= 16, so a
/// column's record count (nIntervals vs nArrows) follows from its id and
/// future formats can add ids without breaking this reader.
enum : std::uint8_t {
  kColStateId = 0,
  kColFlags = 1,  ///< bebits in bits 0..7, pseudo in bit 8
  kColStart = 2,
  kColDura = 3,
  kColNode = 4,
  kColCpu = 5,
  kColThread = 6,
  kColSrcNode = 16,
  kColSrcThread = 17,
  kColSendTime = 18,
  kColDstNode = 19,
  kColDstThread = 20,
  kColRecvTime = 21,
  kColBytes = 22,
};

/// Column block payload encodings.
enum : std::uint8_t {
  kEncVarint = 1,  ///< one varint per record
  kEncDelta = 2,   ///< first value plain, then zigzag varint deltas
  kEncDict = 3,    ///< varint dict size, dict values, per-record indexes
};

/// Dictionaries only pay for themselves on genuinely small-cardinality
/// columns; past this many distinct values the scan stops early.
constexpr std::size_t kMaxDictValues = 64;

/// Bytes putVarint() spends on `v`: one per started 7-bit group.
constexpr std::size_t varintSize(std::uint64_t v) {
  return (static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Writes `v` as a varint at `p`, which has room for it; returns the end.
std::uint8_t* writeVarint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// The dictionary candidate of one column, looked up through a
/// fixed-size open-addressing table on the stack. At most kMaxDictValues
/// entries in kSlots slots keeps probe chains short.
class DictBuilder {
 public:
  /// The index of `v`, adding it when new; -1 once the dictionary would
  /// exceed kMaxDictValues entries.
  int indexOf(std::uint64_t v) {
    std::size_t slot = (v * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits);
    while (slots_[slot] != 0) {
      const int idx = slots_[slot] - 1;
      if (values_[idx] == v) return idx;
      slot = (slot + 1) & (kSlots - 1);
    }
    if (size_ == kMaxDictValues) return -1;
    values_[size_] = v;
    slots_[slot] = static_cast<std::uint8_t>(++size_);
    return static_cast<int>(size_ - 1);
  }
  std::size_t size() const { return size_; }
  std::uint64_t operator[](std::size_t i) const { return values_[i]; }

 private:
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  std::array<std::uint8_t, kSlots> slots_{};  ///< dictionary index + 1
  std::array<std::uint64_t, kMaxDictValues> values_{};
  std::size_t size_ = 0;
};

/// Calls `fn` with each value a delta block holds for the column `get`
/// reads: the first value plain, then each zigzag-mapped difference.
template <typename Record, typename Get, typename Fn>
void forEachDelta(std::span<const Record> records, Get get, Fn fn) {
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint64_t cur = get(records[i]);
    fn(i == 0 ? cur : zigzagEncode(static_cast<std::int64_t>(cur - prev)));
    prev = cur;
  }
}

/// Appends the column `get` reads from `records` to `out` as one block:
/// u8 id, u8 encoding, varint length, payload. Both candidate encodings
/// are sized arithmetically in one pass and only the winner is written:
/// time columns are always delta-coded; other columns use the dictionary
/// (first-appearance order, every index one byte) only when it is
/// strictly smaller than plain varints.
template <typename Record, typename Get>
void emitColumn(std::uint8_t id, bool isTime,
                std::span<const Record> records, Get get, ColumnarScratch& s,
                std::vector<std::uint8_t>& out) {
  const std::size_t n = records.size();
  std::uint8_t encoding = kEncVarint;
  std::size_t blockSize = 0;
  DictBuilder dict;
  if (isTime) {
    encoding = kEncDelta;
    forEachDelta(records, get,
                 [&](std::uint64_t v) { blockSize += varintSize(v); });
  } else {
    s.indexes.resize(n);
    std::uint8_t* indexes = s.indexes.data();
    std::size_t dictValueBytes = 0;
    std::size_t i = 0;
    for (; i < n; ++i) {
      const std::uint64_t v = get(records[i]);
      const std::size_t before = dict.size();
      const int idx = dict.indexOf(v);
      if (idx < 0) break;
      indexes[i] = static_cast<std::uint8_t>(idx);
      const std::size_t bytes = varintSize(v);
      blockSize += bytes;
      if (dict.size() != before) dictValueBytes += bytes;
    }
    const bool viable = n > 0 && i == n;
    for (; i < n; ++i) blockSize += varintSize(get(records[i]));
    // The dictionary size and every index are below 128: one byte each.
    const std::size_t dictSize = 1 + dictValueBytes + n;
    if (viable && dictSize < blockSize) {
      encoding = kEncDict;
      blockSize = dictSize;
    }
  }
  // The writes below fill exactly the bytes sized above (the oracle tests
  // in tests/slog/codec_test.cpp hold the two to the reference encoder).
  const std::size_t at = out.size();
  out.resize(at + 2 + varintSize(blockSize) + blockSize);
  std::uint8_t* p = out.data() + at;
  *p++ = id;
  *p++ = encoding;
  p = writeVarint(p, blockSize);
  if (encoding == kEncDict) {
    *p++ = static_cast<std::uint8_t>(dict.size());
    for (std::size_t k = 0; k < dict.size(); ++k) p = writeVarint(p, dict[k]);
    std::memcpy(p, s.indexes.data(), n);
  } else if (isTime) {
    forEachDelta(records, get,
                 [&](std::uint64_t v) { p = writeVarint(p, v); });
  } else {
    for (const Record& r : records) p = writeVarint(p, get(r));
  }
}

/// Releases every scratch buffer above kScratchKeepBytes.
void trim(ColumnarScratch& s) {
  releaseIfLarge(s.dict);
  releaseIfLarge(s.indexes);
  for (std::vector<std::uint64_t>& l : s.lanes) releaseIfLarge(l);
}

std::uint64_t packFlags(const SlogInterval& r) {
  return static_cast<std::uint64_t>(r.bebits) |
         (r.pseudo ? 0x100ull : 0ull);
}

}  // namespace

void encodeColumnarFrame(std::span<const SlogInterval> intervals,
                         std::span<const SlogArrow> arrows,
                         std::vector<std::uint8_t>& out,
                         ColumnarScratch& scratch) {
  putVarint(out, intervals.size());
  putVarint(out, arrows.size());

  const auto column = [&](std::uint8_t id, bool isTime, auto&& get) {
    emitColumn(id, isTime, intervals, get, scratch, out);
  };
  const auto arrowColumn = [&](std::uint8_t id, bool isTime, auto&& get) {
    emitColumn(id, isTime, arrows, get, scratch, out);
  };

  if (!intervals.empty()) {
    column(kColStateId, false,
           [](const SlogInterval& r) { return std::uint64_t{r.stateId}; });
    column(kColFlags, false, packFlags);
    column(kColStart, true,
           [](const SlogInterval& r) { return std::uint64_t{r.start}; });
    column(kColDura, false,
           [](const SlogInterval& r) { return std::uint64_t{r.dura}; });
    column(kColNode, false,
           [](const SlogInterval& r) { return zigzagEncode(r.node); });
    column(kColCpu, false,
           [](const SlogInterval& r) { return zigzagEncode(r.cpu); });
    column(kColThread, false,
           [](const SlogInterval& r) { return zigzagEncode(r.thread); });
  }
  if (!arrows.empty()) {
    arrowColumn(kColSrcNode, false,
                [](const SlogArrow& a) { return zigzagEncode(a.srcNode); });
    arrowColumn(kColSrcThread, false, [](const SlogArrow& a) {
      return zigzagEncode(a.srcThread);
    });
    arrowColumn(kColSendTime, true,
                [](const SlogArrow& a) { return std::uint64_t{a.sendTime}; });
    arrowColumn(kColDstNode, false,
                [](const SlogArrow& a) { return zigzagEncode(a.dstNode); });
    arrowColumn(kColDstThread, false, [](const SlogArrow& a) {
      return zigzagEncode(a.dstThread);
    });
    arrowColumn(kColRecvTime, true,
                [](const SlogArrow& a) { return std::uint64_t{a.recvTime}; });
    arrowColumn(kColBytes, false,
                [](const SlogArrow& a) { return std::uint64_t{a.bytes}; });
  }
  trim(scratch);
}

namespace {

void decodeLane(std::span<const std::uint8_t> block, std::uint8_t encoding,
                std::size_t count, std::vector<std::uint64_t>& lane,
                std::vector<std::uint64_t>& dict) {
  // Every encoding spends at least one byte per record, so a count the
  // block cannot hold is corruption, caught before it sizes the lane
  // (which keeps a reused lane within 8x its column block).
  if (count > block.size()) {
    throw FormatError("column block of " + std::to_string(block.size()) +
                      " bytes cannot hold " + std::to_string(count) +
                      " records");
  }
  lane.resize(count);
  std::size_t pos = 0;
  switch (encoding) {
    case kEncVarint: {
      for (std::size_t i = 0; i < count; ++i) lane[i] = getVarint(block, pos);
      break;
    }
    case kEncDelta: {
      if (count > 0) {
        lane[0] = getVarint(block, pos);
        for (std::size_t i = 1; i < count; ++i) {
          lane[i] = lane[i - 1] +
                    static_cast<std::uint64_t>(
                        zigzagDecode(getVarint(block, pos)));
        }
      }
      break;
    }
    case kEncDict: {
      const std::uint64_t dictSize = getVarint(block, pos);
      // A dictionary can never usefully exceed the record count, and a
      // corrupt size must not drive a huge allocation.
      if (dictSize > count && dictSize > kMaxDictValues) {
        throw FormatError("columnar dictionary larger than the column");
      }
      dict.resize(static_cast<std::size_t>(dictSize));
      for (std::uint64_t& v : dict) v = getVarint(block, pos);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint64_t idx = getVarint(block, pos);
        if (idx >= dictSize) {
          throw FormatError("columnar dictionary index out of range");
        }
        lane[i] = dict[static_cast<std::size_t>(idx)];
      }
      break;
    }
    default:
      throw FormatError("unknown column encoding " +
                        std::to_string(encoding));
  }
  if (pos != block.size()) {
    throw FormatError("column block has " +
                      std::to_string(block.size() - pos) +
                      " trailing bytes");
  }
}

}  // namespace

void decodeColumnarFrame(std::span<const std::uint8_t> payload,
                         SlogFrameData& out, ColumnarScratch& scratch) {
  const auto fail = [](const std::string& what) -> void {
    throw FormatError("corrupt columnar SLOG frame: " + what);
  };
  out.intervals.clear();
  out.arrows.clear();
  std::size_t pos = 0;
  const std::uint64_t nIntervals = getVarint(payload, pos);
  const std::uint64_t nArrows = getVarint(payload, pos);
  // Every present column spends at least one byte per record, so a
  // claimed record count beyond the payload size is corruption — and
  // must be rejected before it sizes any allocation.
  if (nIntervals > payload.size() || nArrows > payload.size()) {
    fail("record count exceeds payload size");
  }

  // Lanes indexed by column id; ids outside the known set are skipped
  // by their recorded length.
  std::array<std::vector<std::uint64_t>, 23>& lanes = scratch.lanes;
  std::array<bool, 23> seen{};
  const auto known = [](std::uint8_t id) {
    return id <= kColThread || (id >= kColSrcNode && id <= kColBytes);
  };
  while (pos < payload.size()) {
    if (payload.size() - pos < 2) fail("truncated column header");
    const std::uint8_t id = payload[pos++];
    const std::uint8_t encoding = payload[pos++];
    const std::uint64_t len = getVarint(payload, pos);
    if (len > payload.size() - pos) fail("column block exceeds payload");
    const std::span<const std::uint8_t> block =
        payload.subspan(pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    if (!known(id)) continue;
    if (seen[id]) fail("duplicate column " + std::to_string(id));
    const std::size_t count = static_cast<std::size_t>(
        id < 16 ? nIntervals : nArrows);
    decodeLane(block, encoding, count, lanes[id], scratch.dict);
    seen[id] = true;
  }

  if (nIntervals > 0) {
    for (std::uint8_t id = kColStateId; id <= kColThread; ++id) {
      if (!seen[id]) fail("missing interval column " + std::to_string(id));
    }
  }
  if (nArrows > 0) {
    for (std::uint8_t id = kColSrcNode; id <= kColBytes; ++id) {
      if (!seen[id]) fail("missing arrow column " + std::to_string(id));
    }
  }

  // Column-to-struct transpose: one tight loop per field over its lane
  // (the autovectorizable shape the columnar layout exists for).
  out.intervals.resize(static_cast<std::size_t>(nIntervals));
  if (nIntervals > 0) {
    SlogInterval* iv = out.intervals.data();
    const std::size_t n = out.intervals.size();
    if (kernels::laneOr(lanes[kColFlags].data(), n) & ~0x1ffull) {
      fail("interval flags column has unknown bits");
    }
    const std::uint64_t* lane = lanes[kColStateId].data();
    for (std::size_t i = 0; i < n; ++i) {
      iv[i].stateId = static_cast<std::uint32_t>(lane[i]);
    }
    lane = lanes[kColFlags].data();
    for (std::size_t i = 0; i < n; ++i) {
      iv[i].bebits = static_cast<std::uint8_t>(lane[i]);
      iv[i].pseudo = (lane[i] & 0x100) != 0;
    }
    lane = lanes[kColStart].data();
    for (std::size_t i = 0; i < n; ++i) iv[i].start = lane[i];
    lane = lanes[kColDura].data();
    for (std::size_t i = 0; i < n; ++i) iv[i].dura = lane[i];
    lane = lanes[kColNode].data();
    for (std::size_t i = 0; i < n; ++i) {
      iv[i].node = static_cast<std::int32_t>(zigzagDecode(lane[i]));
    }
    lane = lanes[kColCpu].data();
    for (std::size_t i = 0; i < n; ++i) {
      iv[i].cpu = static_cast<std::int32_t>(zigzagDecode(lane[i]));
    }
    lane = lanes[kColThread].data();
    for (std::size_t i = 0; i < n; ++i) {
      iv[i].thread = static_cast<std::int32_t>(zigzagDecode(lane[i]));
    }
  }

  out.arrows.resize(static_cast<std::size_t>(nArrows));
  if (nArrows > 0) {
    SlogArrow* ar = out.arrows.data();
    const std::size_t n = out.arrows.size();
    const std::uint64_t* lane = lanes[kColSrcNode].data();
    for (std::size_t i = 0; i < n; ++i) {
      ar[i].srcNode = static_cast<std::int32_t>(zigzagDecode(lane[i]));
    }
    lane = lanes[kColSrcThread].data();
    for (std::size_t i = 0; i < n; ++i) {
      ar[i].srcThread = static_cast<std::int32_t>(zigzagDecode(lane[i]));
    }
    lane = lanes[kColSendTime].data();
    for (std::size_t i = 0; i < n; ++i) ar[i].sendTime = lane[i];
    lane = lanes[kColDstNode].data();
    for (std::size_t i = 0; i < n; ++i) {
      ar[i].dstNode = static_cast<std::int32_t>(zigzagDecode(lane[i]));
    }
    lane = lanes[kColDstThread].data();
    for (std::size_t i = 0; i < n; ++i) {
      ar[i].dstThread = static_cast<std::int32_t>(zigzagDecode(lane[i]));
    }
    lane = lanes[kColRecvTime].data();
    for (std::size_t i = 0; i < n; ++i) ar[i].recvTime = lane[i];
    lane = lanes[kColBytes].data();
    for (std::size_t i = 0; i < n; ++i) {
      ar[i].bytes = static_cast<std::uint32_t>(lane[i]);
    }
  }
  trim(scratch);
}

namespace {
/// Bytes of one v1 row: a kind byte, then the record's fixed fields.
constexpr std::size_t kRowIntervalBytes = 1 + 4 + 1 + 1 + 8 + 8 + 4 + 4 + 4;
constexpr std::size_t kRowArrowBytes = 1 + 4 + 4 + 8 + 4 + 4 + 8 + 4;
}  // namespace

void encodeRowInterval(std::vector<std::uint8_t>& out,
                       const SlogInterval& r) {
  const std::size_t at = out.size();
  out.resize(at + kRowIntervalBytes);
  std::uint8_t* p = out.data() + at;
  *p++ = 0;  // kind: interval
  p = storeLe(p, r.stateId);
  *p++ = r.bebits;
  *p++ = r.pseudo ? 1 : 0;
  p = storeLe(p, r.start);
  p = storeLe(p, r.dura);
  p = storeLe(p, static_cast<std::uint32_t>(r.node));
  p = storeLe(p, static_cast<std::uint32_t>(r.cpu));
  storeLe(p, static_cast<std::uint32_t>(r.thread));
}

void encodeRowArrow(std::vector<std::uint8_t>& out, const SlogArrow& a) {
  const std::size_t at = out.size();
  out.resize(at + kRowArrowBytes);
  std::uint8_t* p = out.data() + at;
  *p++ = 1;  // kind: arrow
  p = storeLe(p, static_cast<std::uint32_t>(a.srcNode));
  p = storeLe(p, static_cast<std::uint32_t>(a.srcThread));
  p = storeLe(p, a.sendTime);
  p = storeLe(p, static_cast<std::uint32_t>(a.dstNode));
  p = storeLe(p, static_cast<std::uint32_t>(a.dstThread));
  p = storeLe(p, a.recvTime);
  storeLe(p, a.bytes);
}

}  // namespace ute
