#pragma once

#include <cstdint>
#include <vector>

namespace raidsim {

/// Fenwick (binary indexed) tree over int64 counts with prefix sums and
/// k-th element selection in O(log n). Used by the LRU-stack locality
/// engine in the trace generator and available as a general substrate.
class FenwickTree {
 public:
  explicit FenwickTree(std::size_t size = 0);

  /// Reset to `size` zeroed slots.
  void reset(std::size_t size);

  std::size_t size() const { return size_; }

  /// Add `delta` to slot i.
  void add(std::size_t i, std::int64_t delta);

  /// Sum of slots [0, i] inclusive. Returns 0 for empty prefix via
  /// prefix_sum_exclusive.
  std::int64_t prefix_sum(std::size_t i) const;

  /// Sum of slots [0, i).
  std::int64_t prefix_sum_exclusive(std::size_t i) const;

  /// Sum of slots [lo, hi] inclusive.
  std::int64_t range_sum(std::size_t lo, std::size_t hi) const;

  /// Total of all slots.
  std::int64_t total() const;

  /// Smallest index i such that prefix_sum(i) >= target (target >= 1).
  /// Requires target <= total(); behaviour is undefined otherwise
  /// (checked by assert in debug builds). When `within` is non-null it
  /// receives the target's rank inside slot i, target -
  /// prefix_sum_exclusive(i), which lies in [1, value of slot i].
  std::size_t select(std::int64_t target,
                     std::int64_t* within = nullptr) const;

 private:
  std::size_t size_ = 0;
  std::size_t top_bit_ = 0;  // highest power of two <= size_ (0 if empty)
  std::vector<std::int64_t> tree_;  // 1-based
};

}  // namespace raidsim
