#include "util/fenwick.hpp"

#include <bit>
#include <cassert>

namespace raidsim {

FenwickTree::FenwickTree(std::size_t size) { reset(size); }

void FenwickTree::reset(std::size_t size) {
  size_ = size;
  tree_.assign(size + 1, 0);
  top_bit_ = std::bit_floor(size);
}

void FenwickTree::add(std::size_t i, std::int64_t delta) {
  assert(i < size_);
  for (std::size_t j = i + 1; j <= size_; j += j & (~j + 1)) tree_[j] += delta;
}

std::int64_t FenwickTree::prefix_sum(std::size_t i) const {
  assert(i < size_);
  std::int64_t sum = 0;
  for (std::size_t j = i + 1; j > 0; j -= j & (~j + 1)) sum += tree_[j];
  return sum;
}

std::int64_t FenwickTree::prefix_sum_exclusive(std::size_t i) const {
  return i == 0 ? 0 : prefix_sum(i - 1);
}

std::int64_t FenwickTree::range_sum(std::size_t lo, std::size_t hi) const {
  assert(lo <= hi);
  return prefix_sum(hi) - prefix_sum_exclusive(lo);
}

std::int64_t FenwickTree::total() const {
  return size_ == 0 ? 0 : prefix_sum(size_ - 1);
}

std::size_t FenwickTree::select(std::int64_t target,
                                std::int64_t* within) const {
  assert(target >= 1 && target <= total());
  std::size_t pos = 0;
  std::int64_t remaining = target;
  for (std::size_t mask = top_bit_; mask > 0; mask >>= 1) {
    const std::size_t next = pos + mask;
    if (next <= size_ && tree_[next] < remaining) {
      pos = next;
      remaining -= tree_[next];
    }
  }
  if (within) *within = remaining;
  return pos;  // 0-based slot index
}

}  // namespace raidsim
