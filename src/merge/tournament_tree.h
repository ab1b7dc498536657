// Loser-tree (tournament) k-way selection.
//
// The merge utility holds one tree node per input interval file, each
// pointing at that file's next record, sorted by end time (Section 3.1).
// After the winning record is copied to the merged file, only the path
// from that leaf to the root is replayed — O(log k) comparisons per
// record instead of the naive O(k) scan (bench_ablation_merge measures
// the difference).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/errors.h"

namespace ute {

/// Key must be strict-weak-ordered by operator<. Exhausted streams are
/// represented by a caller-supplied sentinel key that compares greater
/// than every live key.
template <typename Key>
class LoserTree {
 public:
  LoserTree(const std::vector<Key>& keys, Key sentinel)
      : sentinel_(std::move(sentinel)) {
    rebuild(keys);
  }

  /// Replays the whole tournament over fresh keys, one per stream (the
  /// stream count may change). Reuses the tree's storage, so rebuilding
  /// at a steady stream count allocates nothing.
  void rebuild(std::span<const Key> keys) {
    if (keys.empty()) throw UsageError("LoserTree needs at least one stream");
    m_ = 1;
    while (m_ < keys.size()) m_ <<= 1;
    keys_.assign(keys.begin(), keys.end());
    keys_.resize(m_, sentinel_);
    tree_.assign(m_, 0);
    winner_ = build(1);
  }

  /// Index of the stream holding the smallest key.
  std::size_t min() const { return winner_; }
  const Key& minKey() const { return keys_[winner_]; }

  /// True when every stream shows the sentinel.
  bool exhausted() const { return !(keys_[winner_] < sentinel_); }

  /// Replaces stream `i`'s key and replays its path to the root. Only
  /// the current winner may be updated: the stored losers along a leaf's
  /// path are exactly the winner's candidate set, so replaying any other
  /// leaf would drop the reigning winner from the tournament (it is
  /// stored at no interior node). Callers that need to change a
  /// non-winner's key must rebuild the tree.
  void update(std::size_t i, Key key) {
    if (i != winner_) {
      throw UsageError("LoserTree::update on a non-winner leaf");
    }
    keys_[i] = std::move(key);
    std::size_t cur = i;
    for (std::size_t node = (m_ + i) / 2; node >= 1; node /= 2) {
      if (keys_[tree_[node]] < keys_[cur]) std::swap(cur, tree_[node]);
    }
    winner_ = cur;
  }

  /// Marks stream `i` as exhausted.
  void close(std::size_t i) { update(i, sentinel_); }

 private:
  /// Returns the winner of the subtree rooted at `node`, recording losers.
  std::size_t build(std::size_t node) {
    if (node >= m_) return node - m_;
    const std::size_t left = build(2 * node);
    const std::size_t right = build(2 * node + 1);
    if (keys_[left] < keys_[right] || !(keys_[right] < keys_[left])) {
      tree_[node] = right;
      return left;
    }
    tree_[node] = left;
    return right;
  }

  std::size_t m_ = 1;
  Key sentinel_;
  std::vector<Key> keys_;
  std::vector<std::size_t> tree_;
  std::size_t winner_ = 0;
};

}  // namespace ute
