// Tests for the prefetching frame reader (FramePrefetcher /
// PrefetchRecordStream) and the bulk directory read in
// IntervalFileReader::readDirectory: byte-equivalence with the
// sequential paths on multi-directory files, the >readahead directory
// tail fallback, and error propagation out of the fetcher thread.
#include "interval/frame_prefetcher.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "interval/file_reader.h"
#include "interval/file_writer.h"
#include "interval/standard_profile.h"
#include "support/file_io.h"

#include <unistd.h>

namespace ute {
namespace {

std::string tempPath(const std::string& name) {
  // Each TEST in this file runs as its own ctest process; prefixing the
  // pid keeps parallel processes from clobbering each other's fixtures.
  return (std::filesystem::temp_directory_path() /
          (std::to_string(getpid()) + "." + name))
      .string();
}

std::vector<ThreadEntry> sampleThreads() {
  return {
      {0, 1000, 10000, 0, 0, ThreadType::kMpi},
      {0, 1000, 10001, 0, 1, ThreadType::kUser},
  };
}

ByteWriter runningPiece(Tick start, Tick dura, LogicalThreadId thread) {
  ByteWriter body;
  encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                   start, dura, 0, 0, thread);
  return body;
}

/// Writes `n` records with small frames and `framesPerDirectory` frames
/// per directory; returns the path.
std::string writeFile(const std::string& name, int n,
                      int framesPerDirectory) {
  const std::string path = tempPath(name);
  IntervalFileOptions options;
  options.profileVersion = kStandardProfileVersion;
  options.fieldSelectionMask = kNodeFileMask;
  options.targetFrameBytes = 1024;
  options.framesPerDirectory = framesPerDirectory;
  IntervalFileWriter w(path, options, sampleThreads());
  for (int i = 0; i < n; ++i) {
    w.addRecord(runningPiece(static_cast<Tick>(i) * 10, 8, i % 2).view());
  }
  w.close();
  return path;
}

void expectStreamsIdentical(const std::string& path) {
  IntervalFileReader reader(path);
  auto sequential = reader.records();
  PrefetchRecordStream prefetched(path, /*depth=*/2);
  RecordView a, b;
  std::uint64_t count = 0;
  for (;;) {
    const bool moreSeq = sequential.next(a);
    const bool morePre = prefetched.next(b);
    ASSERT_EQ(moreSeq, morePre) << "streams disagree at record " << count;
    if (!moreSeq) break;
    ASSERT_TRUE(std::equal(a.body.begin(), a.body.end(), b.body.begin(),
                           b.body.end()))
        << "record " << count << " differs";
    ++count;
  }
  EXPECT_EQ(count, reader.header().totalRecords);
}

TEST(Prefetch, StreamMatchesSequentialAcrossDirectories) {
  // framesPerDirectory=4 forces several chained directories; the
  // prefetching stream must reproduce the sequential stream exactly.
  const std::string path = writeFile("prefetch_multi.uti", 2000, 4);
  IntervalFileReader reader(path);
  EXPECT_EQ(reader.countRecordsViaDirectories(), 2000u);
  expectStreamsIdentical(path);
}

TEST(Prefetch, OversizedDirectoryUsesTailRead) {
  // 100 frames per directory exceed the 64-entry bulk readahead in
  // readDirectory, exercising the second (tail) read. Regression test:
  // the chain walk, record counts, and both streams must agree.
  const std::string path = writeFile("prefetch_tail.uti", 4000, 100);
  IntervalFileReader reader(path);
  bool sawOversized = false;
  std::uint64_t frames = 0;
  for (FrameDirectory dir = reader.firstDirectory(); !dir.frames.empty();
       dir = reader.readDirectory(dir.nextOffset)) {
    frames += dir.frames.size();
    if (dir.frames.size() > 64) sawOversized = true;
    if (dir.nextOffset == 0) break;
  }
  ASSERT_TRUE(sawOversized) << "test needs a directory with > 64 frames";
  EXPECT_GT(frames, 100u);
  EXPECT_EQ(reader.countRecordsViaDirectories(), 4000u);
  expectStreamsIdentical(path);
}

TEST(Prefetch, FramePrefetcherDeliversFramesInFileOrder) {
  const std::string path = writeFile("prefetch_frames.uti", 1500, 4);
  IntervalFileReader reader(path);
  FramePrefetcher prefetcher(path, /*depth=*/2);
  FrameBuf frame;
  std::size_t idx = 0;
  for (FrameDirectory dir = reader.firstDirectory(); !dir.frames.empty();
       dir = reader.readDirectory(dir.nextOffset)) {
    for (const FrameInfo& info : dir.frames) {
      ASSERT_TRUE(prefetcher.next(frame)) << "prefetcher short at " << idx;
      const FrameBuf expected = reader.readFrame(info);
      ASSERT_EQ(frame.size(), expected.size()) << "frame " << idx;
      EXPECT_TRUE(std::equal(frame.bytes().begin(), frame.bytes().end(),
                             expected.bytes().begin()))
          << "frame " << idx;
      ++idx;
    }
    if (dir.nextOffset == 0) break;
  }
  EXPECT_FALSE(prefetcher.next(frame));
}

TEST(Prefetch, EarlyDestructionDoesNotHang) {
  // Dropping the prefetcher while the fetcher thread is still producing
  // must shut the thread down promptly (channel close unblocks it).
  const std::string path = writeFile("prefetch_drop.uti", 2000, 4);
  for (int consumed = 0; consumed < 3; ++consumed) {
    PrefetchRecordStream stream(path, /*depth=*/2);
    RecordView view;
    for (int i = 0; i < consumed; ++i) ASSERT_TRUE(stream.next(view));
  }
}

TEST(Prefetch, FetcherErrorsPropagateToConsumer) {
  // Corrupt the second directory's size field; the fetcher thread hits
  // the FormatError mid-chain and the consumer must see it rethrown
  // from next() after the frames fetched before the error.
  const std::string path = writeFile("prefetch_corrupt.uti", 2000, 4);
  std::uint64_t secondDir = 0;
  {
    IntervalFileReader reader(path);
    secondDir = reader.firstDirectory().nextOffset;
    ASSERT_NE(secondDir, 0u);
  }
  std::vector<std::uint8_t> bytes = readWholeFile(path);
  ASSERT_GT(bytes.size(), secondDir + 4);
  for (int i = 0; i < 4; ++i) bytes[secondDir + i] = 0xff;
  writeWholeFile(path, std::span<const std::uint8_t>(bytes));

  PrefetchRecordStream stream(path, /*depth=*/2);
  EXPECT_THROW(
      {
        RecordView view;
        while (stream.next(view)) {
        }
      },
      FormatError);
}

}  // namespace
}  // namespace ute
