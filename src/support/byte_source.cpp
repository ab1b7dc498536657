#include "support/byte_source.h"

#include <algorithm>
#include <cstdlib>

#include "support/errors.h"
#include "support/file_io.h"

namespace ute {

namespace {

/// A pooled buffer wrapped so the last FrameBuf referencing it returns
/// the storage to its pool instead of freeing it.
struct PooledBuffer {
  PooledBuffer(std::shared_ptr<BufferPool> p, std::vector<std::uint8_t> b)
      : pool(std::move(p)), bytes(std::move(b)) {}
  ~PooledBuffer() { pool->release(std::move(bytes)); }
  std::shared_ptr<BufferPool> pool;
  std::vector<std::uint8_t> bytes;
};

bool mmapDisabledByEnv() {
  const char* v = std::getenv("UTE_NO_MMAP");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace

FrameBuf FrameBuf::copyOf(std::span<const std::uint8_t> bytes) {
  auto owned = std::make_shared<const std::vector<std::uint8_t>>(
      bytes.begin(), bytes.end());
  const std::span<const std::uint8_t> view(*owned);
  return FrameBuf(std::move(owned), view);
}

std::vector<std::uint8_t> BufferPool::acquire(std::size_t n) {
  {
    MutexLock lock(mu_);
    if (!free_.empty()) {
      std::vector<std::uint8_t> buf = std::move(free_.back());
      free_.pop_back();
      ++stats_.reused;
      buf.resize(n);
      return buf;
    }
    ++stats_.allocated;
  }
  return std::vector<std::uint8_t>(n);
}

void BufferPool::release(std::vector<std::uint8_t> buf) {
  MutexLock lock(mu_);
  if (free_.size() < maxFree_) free_.push_back(std::move(buf));
}

BufferPool::Stats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

ByteSource::ByteSource(const std::string& path, Mode mode) : path_(path) {
  if (mode == Mode::kAuto && mmapDisabledByEnv()) mode = Mode::kStream;
  if (mode != Mode::kStream) {
    map_ = MappedFile::tryMap(path);  // throws IoError if unopenable
    if (map_ != nullptr) {
      size_ = map_->size();
      return;
    }
    if (mode == Mode::kMmap) {
      throw IoError("mmap failed" + ioContext(path));
    }
  }
  file_ = std::make_unique<FileReader>(path);
  size_ = file_->size();
  pool_ = std::make_shared<BufferPool>();
}

ByteSource::~ByteSource() = default;

void ByteSource::requireWithin(std::uint64_t offset, std::size_t n) const {
  if (offset > size_ || n > size_ - offset) {
    throw FormatError("read of " + std::to_string(n) +
                      " bytes exceeds file size " + std::to_string(size_) +
                      ioContext(path_, offset));
  }
}

FrameBuf ByteSource::fetch(std::uint64_t offset, std::size_t n) const {
  requireWithin(offset, n);
  if (map_ != nullptr) {
    return FrameBuf(map_, map_->bytes().subspan(
                              static_cast<std::size_t>(offset), n));
  }
  std::vector<std::uint8_t> buf = pool_->acquire(n);
  {
    MutexLock lock(mu_);
    file_->seek(offset);
    file_->readExact(buf);
  }
  auto owner = std::make_shared<const PooledBuffer>(pool_, std::move(buf));
  const std::span<const std::uint8_t> view(owner->bytes);
  return FrameBuf(std::move(owner), view);
}

std::size_t ByteSource::readAt(std::uint64_t offset,
                               std::span<std::uint8_t> out) const {
  if (offset >= size_ || out.empty()) return 0;
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(out.size(), size_ - offset));
  if (map_ != nullptr) {
    std::copy_n(map_->bytes().data() + offset, n, out.data());
    return n;
  }
  MutexLock lock(mu_);
  file_->seek(offset);
  return file_->readSome(out.subspan(0, n));
}

void ByteSource::advise(MappedFile::Hint hint) const {
  if (map_ != nullptr) map_->advise(hint);
}

BufferPool::Stats ByteSource::poolStats() const {
  return pool_ != nullptr ? pool_->stats() : BufferPool::Stats{};
}

}  // namespace ute
