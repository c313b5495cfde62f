#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "core/workloads.hpp"
#include "trace/trace_stats.hpp"

namespace raidsim {
namespace {

/// FNV-1a over every record's (delta_ms bits, block, block_count,
/// is_write), fed little-endian field by field so the hash does not
/// depend on struct padding.
std::uint64_t stream_hash(TraceStream& stream) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto feed = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  while (auto rec = stream.next()) {
    feed(std::bit_cast<std::uint64_t>(rec->delta_ms), 8);
    feed(static_cast<std::uint64_t>(rec->block), 8);
    feed(static_cast<std::uint32_t>(rec->block_count), 4);
    feed(rec->is_write ? 1 : 0, 1);
  }
  return h;
}

struct GoldenStream {
  const char* trace;
  double scale;
  std::uint64_t seed;  // 0 = the profile's default seed
  std::uint64_t hash;
};

// Pinned record streams of the two workload presets. Any change to the
// generator or to the samplers and LRU stack under it that alters even
// one record moves these; a pure performance change must leave them.
constexpr GoldenStream kGoldenStreams[] = {
    {"trace2", 1.0, 0, 0x05a97cfb5246c22aULL},
    {"trace2", 1.0, 1, 0x9d59f7517a0dc825ULL},
    {"trace2", 1.0, 7919, 0xc1078ed07f377269ULL},
    {"trace1", 0.02, 0, 0x468acc0e8bdf7242ULL},
    {"trace1", 0.02, 1, 0xc20607df80b65c09ULL},
    {"trace1", 0.02, 7919, 0xd88b81129c146f00ULL},
};

TEST(Synthetic, GoldenStreamHashes) {
  for (const auto& golden : kGoldenStreams) {
    WorkloadOptions options;
    options.scale = golden.scale;
    options.seed = golden.seed;
    auto stream = make_workload(golden.trace, options);
    const std::uint64_t hash = stream_hash(*stream);
    EXPECT_EQ(hash, golden.hash)
        << golden.trace << " x" << golden.scale << " seed " << golden.seed
        << ": got 0x" << std::hex << hash;
  }
}

TraceProfile small_profile() {
  TraceProfile p = TraceProfile::trace2();
  p.requests = 20000;
  p.duration_s *= 20000.0 / 69539.0;
  return p;
}

TEST(Synthetic, EmitsExactlyTheRequestedCount) {
  SyntheticTrace trace(small_profile());
  std::uint64_t n = 0;
  while (trace.next()) ++n;
  EXPECT_EQ(n, 20000u);
  EXPECT_FALSE(trace.next().has_value());
}

TEST(Synthetic, DeterministicForSeed) {
  SyntheticTrace a(small_profile()), b(small_profile());
  for (int i = 0; i < 5000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_TRUE(ra && rb);
    ASSERT_EQ(ra->block, rb->block);
    ASSERT_EQ(ra->delta_ms, rb->delta_ms);
    ASSERT_EQ(ra->is_write, rb->is_write);
    ASSERT_EQ(ra->block_count, rb->block_count);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  auto p = small_profile();
  SyntheticTrace a(p);
  p.seed += 1;
  SyntheticTrace b(p);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next()->block == b.next()->block) ++same;
  }
  EXPECT_LT(same, 100);
}

TEST(Synthetic, RecordsWithinDatabaseBounds) {
  auto p = small_profile();
  SyntheticTrace trace(p);
  while (auto rec = trace.next()) {
    ASSERT_GE(rec->block, 0);
    ASSERT_LE(rec->block + rec->block_count, p.geometry.total_blocks());
    ASSERT_GE(rec->delta_ms, 0.0);
    ASSERT_GE(rec->block_count, 1);
    ASSERT_LE(rec->block_count, p.multiblock_max_blocks);
  }
}

TEST(Synthetic, RequestsNeverCrossOriginalDiskBoundaries) {
  auto p = small_profile();
  SyntheticTrace trace(p);
  while (auto rec = trace.next()) {
    const int first = p.geometry.disk_of(rec->block);
    const int last = p.geometry.disk_of(rec->block + rec->block_count - 1);
    ASSERT_EQ(first, last);
  }
}

TEST(Synthetic, WriteFractionMatchesProfile) {
  auto p = small_profile();
  SyntheticTrace trace(p);
  const TraceStats stats = TraceStats::collect(trace);
  // Trace 2 preset: ~28% writes overall (Table 2).
  EXPECT_NEAR(stats.write_fraction(), 0.28, 0.02);
}

TEST(Synthetic, MultiblockMixMatchesProfile) {
  auto p = small_profile();
  SyntheticTrace trace(p);
  const TraceStats stats = TraceStats::collect(trace);
  const double multi_fraction =
      static_cast<double>(stats.multiblock_reads + stats.multiblock_writes) /
      static_cast<double>(stats.requests);
  EXPECT_NEAR(multi_fraction, p.multiblock_fraction, 0.01);
  EXPECT_NEAR(stats.single_block_fraction(), 1.0 - p.multiblock_fraction,
              0.01);
}

TEST(Synthetic, DurationMatchesProfile) {
  auto p = small_profile();
  SyntheticTrace trace(p);
  const TraceStats stats = TraceStats::collect(trace);
  EXPECT_NEAR(stats.duration_ms / 1000.0, p.duration_s, p.duration_s * 0.2);
}

TEST(Synthetic, DiskAccessesSkewed) {
  auto p = small_profile();
  SyntheticTrace trace(p);
  const TraceStats stats = TraceStats::collect(trace);
  // Trace 2 exhibits heavy skew (Section 3.2).
  EXPECT_GT(stats.disk_skew_cv(), 0.4);
}

TEST(Synthetic, Trace1PresetMatchesTable2) {
  TraceProfile p = TraceProfile::trace1();
  EXPECT_EQ(p.geometry.data_disks, 130);
  EXPECT_EQ(p.requests, 3362505u);
  EXPECT_NEAR(p.duration_s, 10980.0, 1.0);

  // Scaled-down replica keeps the Table 2 ratios.
  p.requests = 50000;
  p.duration_s *= 50000.0 / 3362505.0;
  SyntheticTrace trace(p);
  const TraceStats stats = TraceStats::collect(trace);
  EXPECT_NEAR(stats.write_fraction(), 0.10, 0.02);
  // Blocks per request ~ 4.47M / 3.36M = 1.33.
  EXPECT_NEAR(static_cast<double>(stats.blocks_transferred) /
                  static_cast<double>(stats.requests),
              1.33, 0.12);
}

TEST(Synthetic, ByNameLookup) {
  EXPECT_EQ(TraceProfile::by_name("trace1").name, "trace1");
  EXPECT_EQ(TraceProfile::by_name("trace2").name, "trace2");
  EXPECT_THROW(TraceProfile::by_name("nope"), std::invalid_argument);
}

TEST(Synthetic, ValidatesProfile) {
  TraceProfile p = small_profile();
  p.requests = 0;
  EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument);
  p = small_profile();
  p.geometry.data_disks = 0;
  EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument);

  // The generator's LRU stack keys blocks in 32 bits.
  p = small_profile();
  p.geometry.data_disks = 1;
  p.geometry.blocks_per_disk = LruStack::kBlockLimit;
  EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument);
  p.geometry.data_disks = 19006;  // 19006 x 226000 > 2^32
  p.geometry.blocks_per_disk = 226000;
  EXPECT_THROW(SyntheticTrace{p}, std::invalid_argument);

  // One block under the limit is accepted and stays in bounds.
  p.geometry.data_disks = 1;
  p.geometry.blocks_per_disk = LruStack::kBlockLimit - 1;
  p.requests = 500;
  SyntheticTrace trace(p);
  while (auto rec = trace.next()) {
    ASSERT_GE(rec->block, 0);
    ASSERT_LE(rec->block + rec->block_count, p.geometry.total_blocks());
  }
}

TEST(SpeedAdapter, ScalesInterArrivalTimes) {
  auto p = small_profile();
  auto base = std::make_unique<SyntheticTrace>(p);
  SyntheticTrace reference(p);
  SpeedAdapter fast(std::move(base), 2.0);
  for (int i = 0; i < 1000; ++i) {
    const auto r = reference.next();
    const auto f = fast.next();
    ASSERT_NEAR(f->delta_ms, r->delta_ms / 2.0, 1e-12);
    ASSERT_EQ(f->block, r->block);
  }
}

TEST(PrefixAdapter, TruncatesStream) {
  auto p = small_profile();
  PrefixAdapter prefix(std::make_unique<SyntheticTrace>(p), 100);
  std::uint64_t n = 0;
  while (prefix.next()) ++n;
  EXPECT_EQ(n, 100u);
}

}  // namespace
}  // namespace raidsim
