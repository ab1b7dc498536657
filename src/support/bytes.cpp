#include "support/bytes.h"

#include <algorithm>
#include <limits>

namespace ute {

void ByteWriter::lstring(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw UsageError("lstring: string longer than 65535 bytes");
  }
  u16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::patchU32(std::size_t pos, std::uint32_t v) {
  if (pos + 4 > buf_.size()) {
    throw UsageError("patchU32: position out of range");
  }
  for (std::size_t i = 0; i < 4; ++i) {
    buf_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void ByteWriter::patchU64(std::size_t pos, std::uint64_t v) {
  if (pos + 8 > buf_.size()) {
    throw UsageError("patchU64: position out of range");
  }
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[pos + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::string ByteReader::lstring() {
  const std::uint16_t n = u16();
  const auto raw = bytes(n);
  return std::string(reinterpret_cast<const char*>(raw.data()), raw.size());
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  require(n);
  auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

void ByteReader::checkCount(std::uint64_t count,
                            std::uint64_t minItemBytes) const {
  if (count > remaining() / std::max<std::uint64_t>(minItemBytes, 1)) {
    throw FormatError("ByteReader: count " + std::to_string(count) +
                      " of " + std::to_string(minItemBytes) +
                      "-byte items overruns the " +
                      std::to_string(remaining()) + " bytes left at offset " +
                      std::to_string(pos_));
  }
}

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

}  // namespace ute
