#include "interval/file_writer.h"

#include <algorithm>

namespace ute {

IntervalFileWriter::IntervalFileWriter(const std::string& path,
                                       const IntervalFileOptions& options,
                                       std::vector<ThreadEntry> threads)
    : path_(path), options_(options), file_(path) {
  if (options_.framesPerDirectory <= 0) options_.framesPerDirectory = 64;
  if (options_.targetFrameBytes < 1024) options_.targetFrameBytes = 1024;

  ByteWriter header;
  header.u32(kIntervalMagic);
  header.u32(options_.profileVersion);
  header.u32(kIntervalHeaderVersion);
  header.u32(options_.merged ? kIntervalFlagMerged : 0);
  header.u64(options_.fieldSelectionMask);
  header.u32(static_cast<std::uint32_t>(threads.size()));
  header.u64(0);  // marker table offset (patched)
  header.u32(0);  // marker count (patched)
  header.u64(kIntervalHeaderBytes + threads.size() * kThreadEntryBytes);
  header.u64(0);  // total records (patched)
  header.u64(0);  // min start (patched)
  header.u64(0);  // max end (patched)
  if (header.size() != kIntervalHeaderBytes) {
    throw UsageError("interval header layout drifted");
  }
  file_.write(header);

  ByteWriter table;
  for (const ThreadEntry& t : threads) {
    table.i32(t.task);
    table.i32(t.pid);
    table.i32(t.systemTid);
    table.i32(t.node);
    table.i32(t.ltid);
    table.u8(static_cast<std::uint8_t>(t.type));
  }
  file_.write(table);
}

void IntervalFileWriter::addMarker(std::uint32_t id, const std::string& name) {
  const auto [it, inserted] = markers_.emplace(id, name);
  if (!inserted && it->second != name) {
    throw UsageError("marker id " + std::to_string(id) +
                     " registered with two different strings ('" + it->second +
                     "' vs '" + name + "')");
  }
}

void IntervalFileWriter::addRecord(std::span<const std::uint8_t> body) {
  if (closed_) throw UsageError("IntervalFileWriter: addRecord after close");
  const RecordView view = RecordView::parse(body);
  if (view.end() < lastEnd_ && !inHook_) {
    throw UsageError("interval records must be appended in ascending "
                     "end-time order (" +
                     std::to_string(view.end()) + " after " +
                     std::to_string(lastEnd_) + ")");
  }

  // A fresh frame (other than the first) begins: let the hook inject its
  // pseudo-intervals so a reader jumping into this frame sees the states
  // that are still open at its beginning.
  if (current_.records == 0 && totalRecords_ > 0 && hook_ && !inHook_) {
    inHook_ = true;
    hookRecords_.clear();
    hook_(lastEnd_, hookRecords_);
    ByteReader pseudo(hookRecords_);
    while (!pseudo.atEnd()) {
      const auto pseudoBody = readLengthPrefixedRecord(pseudo);
      appendToFrame(pseudoBody, RecordView::parse(pseudoBody));
    }
    inHook_ = false;
  }

  appendToFrame(body, view);
  if (!inHook_) lastEnd_ = std::max(lastEnd_, view.end());
  if (current_.bytes.size() >= options_.targetFrameBytes) finalizeFrame();
}

void IntervalFileWriter::appendToFrame(std::span<const std::uint8_t> body,
                                       const RecordView& view) {
  if (current_.records == 0) {
    // Size the frame from the last sealed one, which closed at its first
    // record past the target size: records under 256 bytes then never
    // outgrow this one allocation, and the reservation follows bytes
    // actually written, not the target option.
    current_.bytes.reserve(lastFrameBytes_ + 256);
    current_.minStart = view.start;
    current_.maxEnd = view.end();
  } else {
    current_.minStart = std::min(current_.minStart, view.start);
    current_.maxEnd = std::max(current_.maxEnd, view.end());
  }
  appendRecordWithLength(current_.bytes, body);
  ++current_.records;
  ++totalRecords_;
  minStart_ = std::min(minStart_, view.start);
  maxEnd_ = std::max(maxEnd_, view.end());
}

void IntervalFileWriter::finalizeFrame() {
  if (current_.records == 0) return;
  lastFrameBytes_ = current_.bytes.size();
  pendingFrames_.push_back(std::move(current_));
  current_ = PendingFrame{};
  if (pendingFrames_.size() >=
      static_cast<std::size_t>(options_.framesPerDirectory)) {
    flushDirectory();
  }
}

void IntervalFileWriter::flushDirectory() {
  if (pendingFrames_.empty()) return;
  const std::uint64_t dirOffset = file_.tell();
  const std::size_t dirSize =
      kDirHeaderBytes + pendingFrames_.size() * kFrameEntryBytes;

  ByteWriter dir;
  dir.u32(static_cast<std::uint32_t>(dirSize));
  dir.u32(static_cast<std::uint32_t>(pendingFrames_.size()));
  dir.u64(prevDirOffset_);
  dir.u64(0);  // next directory offset; patched when it exists

  std::uint64_t frameOffset = dirOffset + dirSize;
  std::size_t frameBytesTotal = 0;
  for (const PendingFrame& f : pendingFrames_) {
    dir.u64(frameOffset);
    dir.u32(static_cast<std::uint32_t>(f.bytes.size()));
    dir.u32(f.records);
    dir.u64(f.minStart);
    dir.u64(f.maxEnd);
    frameOffset += f.bytes.size();
    frameBytesTotal += f.bytes.size();
  }
  // One contiguous write per directory flush (directory + all frames)
  // instead of 1 + framesPerDirectory separate writes.
  std::vector<std::uint8_t> batch;
  batch.reserve(dirSize + frameBytesTotal);
  const auto dirView = dir.view();
  batch.insert(batch.end(), dirView.begin(), dirView.end());
  for (const PendingFrame& f : pendingFrames_) {
    batch.insert(batch.end(), f.bytes.begin(), f.bytes.end());
  }
  file_.write(batch);
  pendingFrames_.clear();

  if (prevDirOffset_ != 0) {
    // Patch the previous directory's "next" link (dir header offset 16).
    ByteWriter patch;
    patch.u64(dirOffset);
    file_.writeAt(prevDirOffset_ + 16, patch.view());
  }
  prevDirOffset_ = dirOffset;
}

void IntervalFileWriter::close() {
  if (closed_) return;
  finalizeFrame();
  flushDirectory();

  const std::uint64_t markerOffset = markers_.empty() ? 0 : file_.tell();
  if (!markers_.empty()) {
    ByteWriter table;
    for (const auto& [id, name] : markers_) {
      table.u32(id);
      table.lstring(name);
    }
    file_.write(table);
  }

  // Patch marker table offset/count and the aggregate trailer fields.
  ByteWriter markerPatch;
  markerPatch.u64(markerOffset);
  markerPatch.u32(static_cast<std::uint32_t>(markers_.size()));
  file_.writeAt(28, markerPatch.view());

  ByteWriter aggregates;
  aggregates.u64(totalRecords_);
  aggregates.u64(totalRecords_ == 0 ? 0 : minStart_);
  aggregates.u64(maxEnd_);
  file_.writeAt(48, aggregates.view());

  file_.close();
  closed_ = true;
}

}  // namespace ute
