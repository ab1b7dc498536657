#include "merge/tournament_tree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/rng.h"

namespace ute {
namespace {

TEST(LoserTree, MergesSortedStreams) {
  // Three sorted streams merged through the tree reproduce a full sort.
  std::vector<std::vector<int>> streams = {
      {1, 4, 7, 10}, {2, 5, 8}, {3, 6, 9, 11, 12}};
  std::vector<std::size_t> cursor(streams.size(), 0);
  const int sentinel = 1 << 30;
  std::vector<int> keys;
  for (const auto& s : streams) keys.push_back(s[0]);
  LoserTree<int> tree(keys, sentinel);

  std::vector<int> merged;
  while (!tree.exhausted()) {
    const std::size_t i = tree.min();
    merged.push_back(streams[i][cursor[i]]);
    ++cursor[i];
    tree.update(i, cursor[i] < streams[i].size() ? streams[i][cursor[i]]
                                                 : sentinel);
  }
  const std::vector<int> expected = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  EXPECT_EQ(merged, expected);
}

TEST(LoserTree, SingleStream) {
  LoserTree<int> tree({5}, 100);
  EXPECT_EQ(tree.min(), 0u);
  EXPECT_FALSE(tree.exhausted());
  tree.close(0);
  EXPECT_TRUE(tree.exhausted());
}

TEST(LoserTree, NonPowerOfTwoStreamCounts) {
  for (std::size_t k : {2u, 3u, 5u, 7u, 9u, 17u}) {
    std::vector<int> keys;
    for (std::size_t i = 0; i < k; ++i) {
      keys.push_back(static_cast<int>(k - i));  // descending initial keys
    }
    LoserTree<int> tree(keys, 1 << 30);
    EXPECT_EQ(tree.min(), k - 1) << "k=" << k;  // smallest key is 1
  }
}

TEST(LoserTree, EmptyRejected) {
  EXPECT_THROW(LoserTree<int>({}, 0), UsageError);
}

TEST(LoserTree, RefusesUpdateOnNonWinnerLeaf) {
  // The replay path only competes against the stored losers — exactly
  // the winner's candidate set. Updating any other leaf would silently
  // drop the reigning winner (it is stored at no interior node), so the
  // tree enforces the winner-only contract. Callers that need to move a
  // non-winner's key (the streaming merge, when new records land on
  // arbitrary inputs) must rebuild instead.
  LoserTree<int> tree({1, 2, 3, 4}, 1 << 30);
  ASSERT_EQ(tree.min(), 0u);
  EXPECT_THROW(tree.update(3, 10), UsageError);
  EXPECT_EQ(tree.min(), 0u);  // winner survives the refused update
  tree.update(0, 5);          // winner update is the supported path
  EXPECT_EQ(tree.min(), 1u);
}

TEST(LoserTree, RebuildReplaysFromFreshKeysInPlace) {
  // The streaming merge rebuilds one tree whenever a non-winner's key
  // moves. A rebuild must forget every loser the previous tournament
  // stored, whatever the new stream count.
  LoserTree<int> tree({1, 2, 3, 4, 5}, 1 << 30);
  tree.update(0, 9);  // leaves stale losers along leaf 0's path
  ASSERT_EQ(tree.min(), 1u);

  const std::vector<int> same = {8, 7, 6, 9, 10};
  tree.rebuild(same);
  EXPECT_EQ(tree.min(), 2u);
  EXPECT_EQ(tree.minKey(), 6);

  // Merging on after the rebuild still yields sorted output.
  std::vector<int> keys = same;
  std::vector<int> merged;
  while (!tree.exhausted()) {
    const std::size_t i = tree.min();
    merged.push_back(keys[i]);
    keys[i] = keys[i] < 20 ? keys[i] + 5 : 1 << 30;
    tree.update(i, keys[i]);
  }
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end()));
  EXPECT_EQ(merged.size(), 19u);

  const std::vector<int> fewer = {4, 3, 5};
  tree.rebuild(fewer);
  EXPECT_EQ(tree.min(), 1u);
  EXPECT_FALSE(tree.exhausted());
  const std::vector<int> more = {9, 8, 7, 6, 5, 4, 3, 2, 1};
  tree.rebuild(more);
  EXPECT_EQ(tree.min(), 8u);
  EXPECT_THROW(tree.rebuild(std::vector<int>{}), UsageError);
}

class LoserTreeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LoserTreeFuzzTest, MatchesStdSortOnRandomStreams) {
  Rng rng(GetParam());
  const std::size_t k = 1 + rng.below(12);
  std::vector<std::vector<std::uint64_t>> streams(k);
  std::vector<std::uint64_t> all;
  for (auto& s : streams) {
    std::uint64_t v = 0;
    const std::size_t n = rng.below(200);
    for (std::size_t i = 0; i < n; ++i) {
      v += rng.below(1000);
      s.push_back(v);
      all.push_back(v);
    }
  }
  const std::uint64_t sentinel = ~std::uint64_t{0};
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> cursor(k, 0);
  for (const auto& s : streams) keys.push_back(s.empty() ? sentinel : s[0]);
  LoserTree<std::uint64_t> tree(keys, sentinel);

  std::vector<std::uint64_t> merged;
  while (!tree.exhausted()) {
    const std::size_t i = tree.min();
    merged.push_back(streams[i][cursor[i]]);
    ++cursor[i];
    tree.update(i, cursor[i] < streams[i].size() ? streams[i][cursor[i]]
                                                 : sentinel);
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(merged, all);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoserTreeFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 17));

}  // namespace
}  // namespace ute
