#include "trace/lru_stack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.hpp"

namespace raidsim {
namespace {

/// Straightforward reference implementation.
class NaiveStack {
 public:
  void touch(std::int64_t block) {
    auto it = std::find(stack_.begin(), stack_.end(), block);
    if (it != stack_.end()) stack_.erase(it);
    stack_.insert(stack_.begin(), block);
  }
  std::optional<std::int64_t> at_depth(std::size_t d) const {
    if (d >= stack_.size()) return std::nullopt;
    return stack_[d];
  }
  std::optional<std::size_t> depth_of(std::int64_t block) const {
    auto it = std::find(stack_.begin(), stack_.end(), block);
    if (it == stack_.end()) return std::nullopt;
    return static_cast<std::size_t>(it - stack_.begin());
  }
  std::size_t size() const { return stack_.size(); }

 private:
  std::vector<std::int64_t> stack_;
};

TEST(LruStack, BasicSemantics) {
  LruStack stack;
  EXPECT_EQ(stack.size(), 0u);
  EXPECT_FALSE(stack.at_depth(0).has_value());

  stack.touch(10);
  stack.touch(20);
  stack.touch(30);
  EXPECT_EQ(stack.size(), 3u);
  EXPECT_EQ(stack.at_depth(0), 30);
  EXPECT_EQ(stack.at_depth(1), 20);
  EXPECT_EQ(stack.at_depth(2), 10);
  EXPECT_FALSE(stack.at_depth(3).has_value());
}

TEST(LruStack, TouchMovesToTop) {
  LruStack stack;
  stack.touch(1);
  stack.touch(2);
  stack.touch(3);
  stack.touch(1);  // re-reference
  EXPECT_EQ(stack.size(), 3u);
  EXPECT_EQ(stack.at_depth(0), 1);
  EXPECT_EQ(stack.at_depth(1), 3);
  EXPECT_EQ(stack.at_depth(2), 2);
}

TEST(LruStack, DepthOf) {
  LruStack stack;
  stack.touch(5);
  stack.touch(6);
  EXPECT_EQ(stack.depth_of(6), 0u);
  EXPECT_EQ(stack.depth_of(5), 1u);
  EXPECT_FALSE(stack.depth_of(7).has_value());
  EXPECT_TRUE(stack.contains(5));
  EXPECT_FALSE(stack.contains(7));
}

TEST(LruStack, MatchesNaiveUnderRandomWorkload) {
  LruStack stack(16);  // small initial capacity to force compactions
  NaiveStack naive;
  Rng rng(77);
  for (int op = 0; op < 20000; ++op) {
    const std::int64_t block = rng.uniform_i64(0, 299);
    stack.touch(block);
    naive.touch(block);
    ASSERT_EQ(stack.size(), naive.size());
    const auto d = static_cast<std::size_t>(rng.uniform_u64(naive.size() + 1));
    ASSERT_EQ(stack.at_depth(d), naive.at_depth(d)) << "op " << op;
    const std::int64_t probe = rng.uniform_i64(0, 299);
    ASSERT_EQ(stack.depth_of(probe), naive.depth_of(probe));
  }
}

TEST(LruStack, CompactionPreservesOrder) {
  LruStack stack(16);
  for (std::int64_t i = 0; i < 1000; ++i) stack.touch(i % 8);
  // After many re-touches the stack still holds exactly 8 blocks, most
  // recent last-touched order: 7 % 8 touched last at i=999.
  EXPECT_EQ(stack.size(), 8u);
  EXPECT_EQ(stack.at_depth(0), 999 % 8);
  EXPECT_EQ(stack.at_depth(7), (999 - 7) % 8);
}

/// Every depth and every stacked block's depth agree with the reference.
void expect_full_agreement(const LruStack& stack, const NaiveStack& naive,
                           int op) {
  ASSERT_EQ(stack.size(), naive.size()) << "op " << op;
  for (std::size_t d = 0; d < naive.size(); ++d) {
    const std::int64_t block = *naive.at_depth(d);
    ASSERT_EQ(stack.at_depth(d), block) << "op " << op << " depth " << d;
    ASSERT_EQ(stack.depth_of(block), d) << "op " << op << " block " << block;
  }
  ASSERT_FALSE(stack.at_depth(naive.size()).has_value());
}

/// Depths on both sides of every 64-slot word boundary, where a query
/// crosses from one live-slot word to the next.
void expect_word_boundaries_agree(const LruStack& stack,
                                  const NaiveStack& naive, int op) {
  for (std::size_t w = 64; w <= naive.size() + 1; w += 64) {
    for (std::size_t d = w - 1; d <= w; ++d) {
      const auto expected = naive.at_depth(d);
      ASSERT_EQ(stack.at_depth(d), expected) << "op " << op << " depth " << d;
      if (expected) {
        ASSERT_EQ(stack.depth_of(*expected), d) << "op " << op;
      }
    }
  }
}

/// How run_differential sizes its LruStack before the first touch.
enum class Sizing {
  kGrow,        // LruStack(16), no reserve(): compacts and grows throughout
  kExact,       // reserve(touches, distinct blocks) of the run itself
  kUndersized,  // reserve() a quarter of both: falls back to growing
};

/// The touch sequence run_differential replays for (seed, reuse_prob,
/// universe, ops): with probability `reuse_prob` re-touch the block at a
/// random depth (heavy toward the top, like the sampled stack
/// distances), otherwise touch a block drawn uniformly from [0,
/// universe). Each reuse also records the depth it was drawn from.
struct TouchPlan {
  struct Touch {
    std::int64_t block;
    std::optional<std::size_t> reuse_depth;
  };
  std::vector<Touch> touches;
  std::size_t distinct = 0;
};

TouchPlan plan_touches(std::uint64_t seed, double reuse_prob,
                       std::int64_t universe, int ops) {
  TouchPlan plan;
  NaiveStack naive;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    TouchPlan::Touch touch{0, std::nullopt};
    if (naive.size() > 0 && rng.bernoulli(reuse_prob)) {
      const double u = rng.uniform();
      const auto d = static_cast<std::size_t>(
          u * u * u * static_cast<double>(naive.size()));
      touch = {*naive.at_depth(d), d};
    } else {
      touch.block = rng.uniform_i64(0, universe - 1);
    }
    naive.touch(touch.block);
    plan.touches.push_back(touch);
  }
  plan.distinct = naive.size();
  return plan;
}

/// Drives LruStack and NaiveStack with one TouchPlan. Full sweeps run
/// every 128 ops and whenever the size reaches a power of two, where a
/// growing index doubles; boundary probes run on every op.
void run_differential(std::uint64_t seed, double reuse_prob,
                      std::int64_t universe, int ops,
                      Sizing sizing = Sizing::kGrow) {
  const TouchPlan plan = plan_touches(seed, reuse_prob, universe, ops);
  LruStack stack(16);  // small initial capacity to force compactions
  if (sizing == Sizing::kExact) {
    stack.reserve(plan.touches.size(), plan.distinct);
  } else if (sizing == Sizing::kUndersized) {
    stack.reserve(plan.touches.size() / 4, plan.distinct / 4);
  }
  NaiveStack naive;
  for (int op = 0; op < ops; ++op) {
    const TouchPlan::Touch& touch = plan.touches[op];
    if (touch.reuse_depth) {
      ASSERT_EQ(stack.at_depth(*touch.reuse_depth), touch.block)
          << "op " << op;
    }
    const std::size_t before = naive.size();
    stack.touch(touch.block);
    naive.touch(touch.block);
    ASSERT_NO_FATAL_FAILURE(expect_word_boundaries_agree(stack, naive, op));
    // The index doubles as it passes 7/8 load: at 7 * 2^k + 1 blocks.
    const bool index_grew = naive.size() != before &&
                            (naive.size() - 1) % 7 == 0 &&
                            std::has_single_bit((naive.size() - 1) / 7);
    if (op % 128 == 0 || index_grew) {
      ASSERT_NO_FATAL_FAILURE(expect_full_agreement(stack, naive, op));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_full_agreement(stack, naive, ops));
}

TEST(LruStack, MatchesNaiveInsertionHeavy) {
  // Like trace1: blocks drawn from a universe far larger than the run,
  // about 0.6 distinct blocks per touch, so the stack and its index keep
  // growing through many compactions and index doublings.
  run_differential(11, 0.4, std::int64_t{1} << 30, 12000);
}

TEST(LruStack, MatchesNaiveReuseHeavy) {
  // A small, hot working set: nearly every touch moves a live block, so
  // compaction reclaims almost the whole slot array each time.
  run_differential(12, 0.9, 500, 12000);
}

TEST(LruStack, MatchesNaiveWithExactReservation) {
  // Sized for exactly the run, as the generator sizes its stack: no
  // compaction and no index growth. 12032 touches (188 words) fill the
  // slot array to its last slot.
  run_differential(11, 0.4, std::int64_t{1} << 30, 12032, Sizing::kExact);
  run_differential(12, 0.9, 500, 12032, Sizing::kExact);
  run_differential(13, 0.0, std::int64_t{1} << 30, 4096, Sizing::kExact);
}

TEST(LruStack, MatchesNaiveWithUndersizedReservation) {
  // A quarter of the touches and of the distinct blocks: the stack falls
  // back to compacting and to growing its index, starting from a slot
  // array that is not a power of two.
  run_differential(11, 0.4, std::int64_t{1} << 30, 12000,
                   Sizing::kUndersized);
  run_differential(12, 0.9, 500, 12000, Sizing::kUndersized);
}

TEST(LruStack, ReserveAfterTouchIsNoOp) {
  LruStack stack;
  for (std::int64_t b = 0; b < 100; ++b) stack.touch(b);
  stack.reserve(1 << 20, 1 << 20);
  stack.reserve(0, 0);
  EXPECT_EQ(stack.size(), 100u);
  for (std::size_t d = 0; d < 100; ++d) {
    EXPECT_EQ(stack.at_depth(d), static_cast<std::int64_t>(99 - d));
  }
  // The stack goes on compacting and growing its own arrays.
  for (std::int64_t b = 0; b < 1000; ++b) stack.touch(b % 300);
  EXPECT_EQ(stack.size(), 300u);
  EXPECT_EQ(stack.at_depth(0), 99);     // touched at b = 999
  EXPECT_EQ(stack.at_depth(299), 100);  // touched at b = 700
  EXPECT_EQ(stack.depth_of(0), 99u);    // touched at b = 900
}

TEST(LruStack, ReserveSmallerThanConstructed) {
  // A reservation replaces the constructor's arrays even when it is the
  // smaller, and the stack still grows past it.
  LruStack stack(1 << 16);
  stack.reserve(10, 3);
  NaiveStack naive;
  for (std::int64_t i = 0; i < 3000; ++i) {
    const std::int64_t block = (i * 7919) % 401;
    stack.touch(block);
    naive.touch(block);
  }
  ASSERT_NO_FATAL_FAILURE(expect_full_agreement(stack, naive, 3000));
}

TEST(LruStack, ExtremeBlockNumbers) {
  LruStack stack;
  const std::int64_t top = LruStack::kBlockLimit - 1;
  stack.touch(0);
  stack.touch(top);
  stack.touch(0);
  EXPECT_EQ(stack.at_depth(0), 0);
  EXPECT_EQ(stack.at_depth(1), top);
  EXPECT_EQ(stack.depth_of(top), 1u);
  EXPECT_FALSE(stack.contains(-1));
  EXPECT_FALSE(stack.contains(LruStack::kBlockLimit));
  EXPECT_FALSE(stack.depth_of(LruStack::kBlockLimit + 1).has_value());
}

/// LruStack's index hash of an 8-block group (block / 8), before it is
/// shifted past the block's position in the group. Two groups whose
/// hashes agree in their low k bits start their 8-entry runs at the same
/// place in every index of up to 2^(k + 3) entries. The tests below use
/// it only to pick colliding groups; they check against NaiveStack.
std::uint64_t group_hash(std::uint64_t group) {
  std::uint64_t x = group + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Touches `block` on both stacks.
void touch_both(LruStack& stack, NaiveStack& naive, std::int64_t block) {
  stack.touch(block);
  naive.touch(block);
}

/// contains() and depth_of() agree with the reference for every member of
/// the 8-block group holding `block`, present or absent.
void expect_group_lookups_agree(const LruStack& stack,
                                const NaiveStack& naive, std::int64_t block,
                                int op) {
  const std::int64_t first = block - block % 8;
  for (std::int64_t b = first; b < first + 8; ++b) {
    const auto depth = naive.depth_of(b);
    ASSERT_EQ(stack.contains(b), depth.has_value())
        << "op " << op << " block " << b;
    ASSERT_EQ(stack.depth_of(b), depth) << "op " << op << " block " << b;
  }
}

TEST(LruStack, MatchesNaiveThroughInterleavedGrowthAndCompaction) {
  // From one 64-slot word and a 128-entry index, each round adds an
  // aligned group of 8 fresh blocks and re-touches 24 live blocks at
  // random depths. The index doubles five times (past 112, 224, ..., 1792
  // blocks), and between two doublings the slot array fills and compacts
  // at least once, so entries are remapped by compactions and rehashed
  // through their slots by doublings, turn about.
  LruStack stack(16);
  NaiveStack naive;
  Rng rng(21);
  for (int round = 0; round < 256; ++round) {
    const std::int64_t group = 8 * rng.uniform_i64(0, (1 << 26) - 1);
    for (std::int64_t j = 0; j < 8; ++j) touch_both(stack, naive, group + j);
    for (int k = 0; k < 24; ++k) {
      const auto d = static_cast<std::size_t>(rng.uniform_u64(naive.size()));
      const std::int64_t block = *naive.at_depth(d);
      ASSERT_EQ(stack.at_depth(d), block) << "round " << round;
      touch_both(stack, naive, block);
    }
    ASSERT_NO_FATAL_FAILURE(expect_full_agreement(stack, naive, round));
    // Lookups in two groups near the fresh one, almost always absent.
    ASSERT_NO_FATAL_FAILURE(
        expect_group_lookups_agree(stack, naive, group + 8, round));
    ASSERT_NO_FATAL_FAILURE(
        expect_group_lookups_agree(stack, naive, group + 1024, round));
  }
}

TEST(LruStack, AbsentLookupsCrossLiveEntriesOfTheirGroup) {
  // Three groups whose runs start at the same index position in every
  // index up to 8192 entries. Group a is stored whole, then six members
  // of b, whose entries land past a's run. A probe for b's absent
  // members crosses a's entries and then b's own live ones, comparing
  // each through its slot, before it reaches an empty entry; a probe
  // for c (all absent) crosses both runs.
  const std::uint64_t a = 1000;
  std::vector<std::int64_t> groups{static_cast<std::int64_t>(a)};
  for (std::uint64_t g = a + 1; groups.size() < 3; ++g) {
    if (((group_hash(g) ^ group_hash(a)) & 1023) == 0)
      groups.push_back(static_cast<std::int64_t>(g));
  }
  LruStack stack(16);
  NaiveStack naive;
  const auto check = [&](int op) {
    for (const std::int64_t g : groups)
      ASSERT_NO_FATAL_FAILURE(
          expect_group_lookups_agree(stack, naive, 8 * g, op));
  };
  for (std::int64_t j = 0; j < 8; ++j)
    touch_both(stack, naive, 8 * groups[0] + j);
  for (std::int64_t j = 0; j < 6; ++j)
    touch_both(stack, naive, 8 * groups[1] + j);
  ASSERT_NO_FATAL_FAILURE(check(0));
  ASSERT_NO_FATAL_FAILURE(expect_full_agreement(stack, naive, 0));

  // Move b's members to fresh slots and grow the stack through index
  // doublings and compactions with other blocks: the three groups keep
  // sharing their start, so the chains stay crossed.
  for (int op = 1; op <= 3000; ++op) {
    touch_both(stack, naive, 8 * groups[1] + op % 6);
    touch_both(stack, naive, 8 * (1 << 20) + 3 * op);
    if (op % 100 == 0) {
      ASSERT_NO_FATAL_FAILURE(check(op));
      ASSERT_NO_FATAL_FAILURE(expect_full_agreement(stack, naive, op));
    }
  }
}

TEST(LruStack, BlockAtSlotZero) {
  // The first touch takes slot 0, and each compaction packs the oldest
  // live block into slot 0: an index entry of 0 names a real block.
  for (const std::int64_t first : {std::int64_t{0}, std::int64_t{12345}}) {
    LruStack stack(16);
    NaiveStack naive;
    touch_both(stack, naive, first);
    EXPECT_TRUE(stack.contains(first));
    EXPECT_EQ(stack.depth_of(first), 0u);
    EXPECT_EQ(stack.at_depth(0), first);
    ASSERT_NO_FATAL_FAILURE(expect_group_lookups_agree(stack, naive, first, 0));
    ASSERT_NO_FATAL_FAILURE(
        expect_group_lookups_agree(stack, naive, first + 8, 0));
    // Fill the first word, then re-touch the others so each compaction
    // leaves `first` oldest, at slot 0, until it moves up at op 700 and
    // another block takes slot 0.
    for (std::int64_t b = 1; b < 64; ++b)
      touch_both(stack, naive, first + b);
    for (int op = 0; op < 1000; ++op) {
      touch_both(stack, naive, op == 700 ? first : first + 1 + op % 63);
      const std::int64_t oldest = *naive.at_depth(naive.size() - 1);
      ASSERT_EQ(stack.depth_of(oldest), naive.size() - 1) << "op " << op;
      ASSERT_NO_FATAL_FAILURE(
          expect_group_lookups_agree(stack, naive, oldest, op));
      ASSERT_NO_FATAL_FAILURE(
          expect_group_lookups_agree(stack, naive, first + 64, op));
    }
    ASSERT_NO_FATAL_FAILURE(expect_full_agreement(stack, naive, 1000));
  }
}

TEST(LruStack, StackDistanceInclusionProperty) {
  // An access at stack distance d hits an LRU cache of size > d: verify
  // the hit counts derived from depth_of are monotone in cache size.
  LruStack stack;
  Rng rng(101);
  std::vector<std::uint64_t> hits_at_size{0, 0, 0};  // sizes 8, 32, 128
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t block = rng.uniform_i64(0, 199);
    const auto depth = stack.depth_of(block);
    if (depth) {
      if (*depth < 8) ++hits_at_size[0];
      if (*depth < 32) ++hits_at_size[1];
      if (*depth < 128) ++hits_at_size[2];
    }
    stack.touch(block);
  }
  EXPECT_LE(hits_at_size[0], hits_at_size[1]);
  EXPECT_LE(hits_at_size[1], hits_at_size[2]);
  EXPECT_GT(hits_at_size[2], 0u);
}

}  // namespace
}  // namespace raidsim
