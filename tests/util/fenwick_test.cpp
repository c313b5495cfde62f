#include "util/fenwick.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace raidsim {
namespace {

TEST(Fenwick, EmptyTotals) {
  FenwickTree tree(8);
  EXPECT_EQ(tree.total(), 0);
  EXPECT_EQ(tree.prefix_sum(7), 0);
  EXPECT_EQ(tree.prefix_sum_exclusive(0), 0);
}

TEST(Fenwick, SingleSlot) {
  FenwickTree tree(1);
  tree.add(0, 5);
  EXPECT_EQ(tree.total(), 5);
  EXPECT_EQ(tree.prefix_sum(0), 5);
  EXPECT_EQ(tree.select(1), 0u);
  EXPECT_EQ(tree.select(5), 0u);
}

TEST(Fenwick, PrefixSumsMatchNaive) {
  const std::size_t n = 137;
  FenwickTree tree(n);
  std::vector<std::int64_t> naive(n, 0);
  Rng rng(1);
  for (int op = 0; op < 2000; ++op) {
    const auto i = static_cast<std::size_t>(rng.uniform_u64(n));
    const auto delta = rng.uniform_i64(0, 5);
    tree.add(i, delta);
    naive[i] += delta;
    const auto q = static_cast<std::size_t>(rng.uniform_u64(n));
    std::int64_t expected = 0;
    for (std::size_t j = 0; j <= q; ++j) expected += naive[j];
    ASSERT_EQ(tree.prefix_sum(q), expected) << "q=" << q;
  }
}

TEST(Fenwick, RangeSum) {
  FenwickTree tree(10);
  for (std::size_t i = 0; i < 10; ++i) tree.add(i, static_cast<std::int64_t>(i));
  EXPECT_EQ(tree.range_sum(3, 5), 3 + 4 + 5);
  EXPECT_EQ(tree.range_sum(0, 9), 45);
  EXPECT_EQ(tree.range_sum(7, 7), 7);
}

TEST(Fenwick, SelectMatchesNaive) {
  const std::size_t n = 64;
  FenwickTree tree(n);
  std::vector<std::int64_t> naive(n, 0);
  Rng rng(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = rng.uniform_i64(0, 3);
    tree.add(i, v);
    naive[i] = v;
  }
  const std::int64_t total = tree.total();
  ASSERT_GT(total, 0);
  for (std::int64_t target = 1; target <= total; ++target) {
    // Naive: smallest index whose inclusive prefix >= target.
    std::int64_t cum = 0;
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      cum += naive[i];
      if (cum >= target) {
        expected = i;
        break;
      }
    }
    ASSERT_EQ(tree.select(target), expected) << "target=" << target;
    std::int64_t within = 0;
    ASSERT_EQ(tree.select(target, &within), expected);
    EXPECT_EQ(within, target - tree.prefix_sum_exclusive(expected))
        << "target=" << target;
  }
}

TEST(Fenwick, SelectSkipsZeroSlots) {
  FenwickTree tree(8);
  tree.add(2, 1);
  tree.add(5, 1);
  EXPECT_EQ(tree.select(1), 2u);
  EXPECT_EQ(tree.select(2), 5u);
}

TEST(Fenwick, ResetClears) {
  FenwickTree tree(4);
  tree.add(1, 7);
  tree.reset(6);
  EXPECT_EQ(tree.size(), 6u);
  EXPECT_EQ(tree.total(), 0);
  // select's descent covers the new size, not the old one.
  tree.reset(20);
  tree.add(17, 1);
  EXPECT_EQ(tree.select(1), 17u);
}

TEST(Fenwick, NegativeDeltasSupported) {
  FenwickTree tree(4);
  tree.add(0, 10);
  tree.add(0, -4);
  EXPECT_EQ(tree.prefix_sum(0), 6);
}

}  // namespace
}  // namespace raidsim
