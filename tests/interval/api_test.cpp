// Tests for the paper-style C API of Section 2.4 / Figure 5.
#include "interval/ute_api.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "interval/file_writer.h"
#include "interval/standard_profile.h"

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

struct ApiFixture : ::testing::Test {
  void SetUp() override {
    intervalPath = tempPath("api_test.uti");
    profilePath = tempPath("api_test_profile.ute");
    makeStandardProfile().writeFile(profilePath);

    IntervalFileOptions options;
    options.profileVersion = kStandardProfileVersion;
    options.fieldSelectionMask = kNodeFileMask;
    std::vector<ThreadEntry> threads = {
        {0, 1000, 10000, 0, 0, ThreadType::kMpi}};
    IntervalFileWriter w(intervalPath, options, threads);
    w.addMarker(1, "Main Loop");
    // Three send records with msgSizeSent 100/200/300 and a Running one.
    Tick t = 0;
    for (std::uint32_t bytes : {100u, 200u, 300u}) {
      ByteWriter extra;
      extra.i32(1);
      extra.i32(0);
      extra.u32(bytes);
      extra.u32(bytes / 100);
      extra.i32(0);
      ByteWriter body;
      encodeRecordBody(body,
                       makeIntervalType(EventType::kMpiSend, Bebits::kComplete),
                       t, 50, 0, 0, 0, extra.view());
      w.addRecord(body.view());
      t += 100;
    }
    ByteWriter body;
    encodeRecordBody(body, makeIntervalType(kRunningState, Bebits::kComplete),
                     t, 500, 0, 0, 0);
    w.addRecord(body.view());
    w.close();
  }

  std::string intervalPath;
  std::string profilePath;
};

TEST_F(ApiFixture, Figure5TotalBytesSent) {
  using namespace ute::api;
  long long ilong = 0;
  long long totalSize = 0;
  long length = 0;
  table_format table;
  interval_header header;
  frame_directory framedir;
  unsigned char buffer[1024];

  UteFile* infp = readHeader(intervalPath.c_str(), &header);
  ASSERT_NE(infp, nullptr);
  ASSERT_GT(readFrameDir(infp, &framedir), 0);
  ASSERT_EQ(readProfile(profilePath.c_str(), &table, header.masks), 0);
  int records = 0;
  while ((length = getInterval(infp, &framedir, buffer, sizeof buffer)) > 0) {
    ++records;
    if (getItemByName(&table, buffer, length, "msgSizeSent", &ilong) > 0) {
      totalSize += ilong;
    }
  }
  EXPECT_EQ(records, 4);
  EXPECT_EQ(totalSize, 600);  // 100 + 200 + 300

  freeProfile(&table);
  closeInterval(infp);
}

TEST_F(ApiFixture, HeaderFieldsPopulated) {
  using namespace ute::api;
  interval_header header;
  UteFile* f = readHeader(intervalPath.c_str(), &header);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(header.profile_version, kStandardProfileVersion);
  EXPECT_EQ(header.masks, kNodeFileMask);
  EXPECT_EQ(header.thread_count, 1u);
  EXPECT_EQ(header.total_records, 4u);
  EXPECT_EQ(header.min_start, 0u);
  EXPECT_EQ(header.max_end, 800u);
  closeInterval(f);
}

TEST_F(ApiFixture, AggregateRoutines) {
  using namespace ute::api;
  UteFile* f = readHeader(intervalPath.c_str(), nullptr);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(totalRecordCount(f), 4);
  EXPECT_EQ(totalElapsedTime(f), 800);
  closeInterval(f);
}

TEST_F(ApiFixture, MarkerStringRetrieval) {
  using namespace ute::api;
  UteFile* f = readHeader(intervalPath.c_str(), nullptr);
  ASSERT_NE(f, nullptr);
  char buf[64];
  EXPECT_EQ(getMarkerString(f, 1, buf, sizeof buf), 9);
  EXPECT_STREQ(buf, "Main Loop");
  EXPECT_EQ(getMarkerString(f, 99, buf, sizeof buf), -1);
  char tiny[3];
  EXPECT_EQ(getMarkerString(f, 1, tiny, sizeof tiny), -1);
  closeInterval(f);
}

TEST_F(ApiFixture, IsVectorFieldQueries) {
  using namespace ute::api;
  table_format table;
  ASSERT_EQ(readProfile(profilePath.c_str(), &table, kNodeFileMask), 0);
  const std::uint32_t sendComplete =
      makeIntervalType(EventType::kMpiSend, Bebits::kComplete);
  EXPECT_EQ(isVectorField(&table, sendComplete, "msgSizeSent"), 0);
  EXPECT_EQ(isVectorField(&table, sendComplete, "bogus"), -1);
  EXPECT_EQ(isVectorField(&table, 99999, "msgSizeSent"), -1);
  freeProfile(&table);
}

TEST_F(ApiFixture, ErrorPaths) {
  using namespace ute::api;
  interval_header header;
  EXPECT_EQ(readHeader("/no/such/file.uti", &header), nullptr);

  table_format table;
  EXPECT_LT(readProfile("/no/such/profile.ute", &table, 1), 0);

  UteFile* f = readHeader(intervalPath.c_str(), &header);
  frame_directory dir;
  ASSERT_GT(readFrameDir(f, &dir), 0);
  // A buffer too small for the next record reports an error.
  unsigned char tiny[8];
  EXPECT_LT(getInterval(f, &dir, tiny, sizeof tiny), 0);
  // A frame_directory not initialized for this file is rejected.
  frame_directory wrong;
  unsigned char buffer[1024];
  EXPECT_LT(getInterval(f, &wrong, buffer, sizeof buffer), 0);
  closeInterval(f);
}

TEST_F(ApiFixture, GetIntervalReturnsZeroAtEof) {
  using namespace ute::api;
  interval_header header;
  UteFile* f = readHeader(intervalPath.c_str(), &header);
  frame_directory dir;
  readFrameDir(f, &dir);
  unsigned char buffer[1024];
  int count = 0;
  while (getInterval(f, &dir, buffer, sizeof buffer) > 0) ++count;
  EXPECT_EQ(count, 4);
  EXPECT_EQ(getInterval(f, &dir, buffer, sizeof buffer), 0);  // stays EOF
  closeInterval(f);
}

}  // namespace
}  // namespace ute
