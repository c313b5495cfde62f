// Golden pins for the record feed: the reader routes the trace into
// bounded per-shard windows, shards park when a window runs dry or an
// array's last response is still undecided, and neither may move a
// single simulated bit. Each case hashes the whole Metrics::to_json with
// FNV-1a; the constants were captured from the engine that read the
// whole trace before the run, so they also pin that the windowed feed
// replays it exactly.
//
// A mismatch prints the new hash. Update a constant only for a change
// that is meant to alter simulated behaviour, and say so in the change
// description.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/job_key.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"

namespace raidsim {
namespace {

std::string fingerprint(const Metrics& metrics) {
  std::ostringstream json;
  metrics.to_json(json);
  std::ostringstream out;
  out << "0x" << std::hex << fnv1a64(json.str());
  return out.str();
}

SimulationConfig cached_raid5(int shards, int threads) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.cached = true;
  config.shards = shards;
  config.shard_threads = threads;
  return config;
}

/// Cached RAID5 over trace1 x0.1: 13 arrays and ~336 K records, i.e.
/// several feed windows, with destage timers running on every array.
std::string trace1_cached(int shards, int threads) {
  WorkloadOptions options;
  options.scale = 0.1;
  auto stream = make_workload("trace1", options);
  return fingerprint(run_simulation(cached_raid5(shards, threads), *stream));
}

// Run quiescence: one kernel, every destage timer stops with the run's
// last response. At this scale the two quiescence rules happen to give
// the same output.
TEST(FeedGolden, Trace1CachedStreamed) {
  EXPECT_EQ(trace1_cached(0, 1), "0x937a4f0631466597");
}

// Per-array quiescence: the same hash at every shard and thread count.
TEST(FeedGolden, Trace1CachedOneShard) {
  EXPECT_EQ(trace1_cached(1, 1), "0x937a4f0631466597");
  EXPECT_EQ(trace1_cached(1, 2), "0x937a4f0631466597");
}

TEST(FeedGolden, Trace1CachedFourShards) {
  EXPECT_EQ(trace1_cached(4, 1), "0x937a4f0631466597");
  EXPECT_EQ(trace1_cached(4, 2), "0x937a4f0631466597");
}

TEST(FeedGolden, Trace1CachedThirteenShards) {
  EXPECT_EQ(trace1_cached(13, 1), "0x937a4f0631466597");
  EXPECT_EQ(trace1_cached(13, 2), "0x937a4f0631466597");
}

class VectorStream : public TraceStream {
 public:
  VectorStream(TraceGeometry geo, std::vector<TraceRecord> records)
      : geo_(geo), records_(std::move(records)) {}
  const TraceGeometry& geometry() const override { return geo_; }
  std::optional<TraceRecord> next() override {
    if (cursor_ == records_.size()) return std::nullopt;
    return records_[cursor_++];
  }

 private:
  TraceGeometry geo_;
  std::vector<TraceRecord> records_;
  std::size_t cursor_ = 0;
};

/// Three cached RAID5 arrays of four data disks. Array 0 takes most of
/// the traffic; array 1 is never touched; array 2 takes a burst at the
/// start, nothing for 178 K records (more than two feed windows), then a
/// burst at the end. So array 2's remaining count drops to zero long
/// before the trace ends, and array 1's is zero throughout.
std::string idle_arrays(int shards) {
  constexpr int kDataDisks = 4;
  constexpr std::int64_t kBlocksPerDisk = 2000;
  constexpr std::int64_t kArrayBlocks = kDataDisks * kBlocksPerDisk;
  const TraceGeometry geo{3 * kDataDisks, kBlocksPerDisk};
  std::vector<TraceRecord> records;
  constexpr int kRecords = 200'000;
  records.reserve(kRecords);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kRecords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const bool burst = i < 2'000 || i >= 180'000;
    const std::int64_t array = burst && i % 2 == 1 ? 2 : 0;
    TraceRecord r;
    r.delta_ms = 4.0 + static_cast<double>(x % 1000) / 100.0;
    r.block_count = 1 + static_cast<int>((x >> 10) % 4);
    r.block = array * kArrayBlocks +
              static_cast<std::int64_t>((x >> 16) %
                                        (kArrayBlocks - r.block_count));
    r.is_write = (x >> 40) % 3 == 0;
    records.push_back(r);
  }
  VectorStream stream(geo, std::move(records));
  SimulationConfig config = cached_raid5(shards, 2);
  config.array_data_disks = kDataDisks;
  config.cache_bytes = 1ll << 20;
  return fingerprint(run_simulation(config, stream));
}

// Shards 1 and 2 wait out array 2's idle stretch and array 1's silence
// before deciding either array's last response; shards 0 streams the
// same trace under run quiescence.
TEST(FeedGolden, UntouchedAndIdleArrays) {
  EXPECT_EQ(idle_arrays(0), "0x9cc853540dc30a84");
  EXPECT_EQ(idle_arrays(1), "0x894b9262fbb4784e");
  EXPECT_EQ(idle_arrays(2), "0x894b9262fbb4784e");
}

}  // namespace
}  // namespace raidsim
