#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/lru_stack.hpp"
#include "trace/record.hpp"
#include "util/mixture.hpp"
#include "util/rng.hpp"

namespace raidsim {

/// Tunable statistical profile of a synthetic OLTP I/O trace. The two
/// presets reproduce the published characteristics of the paper's
/// proprietary DB2 traces (Table 2 plus the skew/locality properties
/// described in Sections 3.1 and 4.3):
///
///  * trace1(): 130 data disks, 3hr3min, 3.36 M requests, 10% writes,
///    98% single-block, moderate disk skew, high temporal locality
///    (read hit ratio ~9% at 8 MB/array rising to ~54% at 256 MB/array;
///    write hit ratio near 1 because blocks are read before update).
///  * trace2(): 10 data disks, 1hr40min, 69.5 k requests, 28% writes,
///    95% single-block, heavy disk skew, weak locality with large
///    working sets (read hit < 1% at 8 MB, ~40% at 256 MB; write hit
///    20% -> 60%).
struct TraceProfile {
  std::string name = "custom";
  TraceGeometry geometry;
  double duration_s = 6000.0;
  std::uint64_t requests = 100000;

  // Request mix.
  double single_write_fraction = 0.10;  // writes among single-block requests
  double multi_write_fraction = 0.34;   // writes among multiblock requests
  double multiblock_fraction = 0.02;    // multiblock requests
  double multiblock_mean_blocks = 16.0;
  int multiblock_max_blocks = 64;

  // Temporal locality: probability that an access reuses a block from the
  // LRU stack, and the stack-depth distribution of such reuses.
  double read_reuse_prob = 0.6;
  LognormalMixture read_depth{{{1.0, 12000.0, 1.8}}};
  double write_reuse_prob = 0.95;
  LognormalMixture write_depth{{{1.0, 1000.0, 1.5}}};

  // Disk access skew: per-disk weights drawn from lognormal(0, sigma).
  double disk_skew_sigma = 0.8;

  // Spatial locality within a disk: probability that a fresh (non-reuse)
  // access continues the current sequential run, and the hot-zone profile
  // for new run starts.
  double sequential_prob = 0.3;
  int zones_per_disk = 64;
  double zone_zipf_theta = 0.6;

  // Arrival process: transactions issue bursts of closely spaced I/Os.
  // OLTP arrivals are highly bursty; the burst intensity (together with
  // the disk skew) determines how much queueing the trace produces, which
  // drives the paper's load-balancing effects.
  double burst_mean_requests = 4.0;
  double intra_burst_gap_ms = 2.0;
  /// Probability that a fresh access within a burst targets the same
  /// original disk as the previous one (transactions touch related data).
  double burst_disk_affinity = 0.0;
  /// Bursts arrive in clusters (busy periods): a cluster contains a
  /// geometric number of bursts separated by `intra_cluster_gap_ms`;
  /// clusters are separated by idle gaps computed so the trace fills its
  /// duration. cluster_mean_bursts == 1 disables clustering.
  double cluster_mean_bursts = 1.0;
  double intra_cluster_gap_ms = 5.0;

  std::uint64_t seed = 42;

  /// Distinct blocks the generator's LRU stack is sized for: an upper
  /// estimate of the blocks its records touch, from the reuse
  /// probabilities and stack-depth distributions, with a margin of three
  /// standard deviations. At most geometry.total_blocks().
  std::uint64_t distinct_block_bound() const;

  /// Mean arrival rate implied by `requests` and `duration_s` (IO/s).
  double arrival_rate_per_s() const {
    return static_cast<double>(requests) / duration_s;
  }

  /// Preset matching the paper's Trace 1 (large installation).
  static TraceProfile trace1();
  /// Preset matching the paper's Trace 2 (small installation).
  static TraceProfile trace2();
  /// Preset lookup by name ("trace1"/"trace2").
  static TraceProfile by_name(const std::string& name);
};

/// Synthetic trace generator: a TraceStream producing `profile.requests`
/// records whose aggregate statistics match the profile. Deterministic
/// for a fixed seed.
class SyntheticTrace : public TraceStream {
 public:
  explicit SyntheticTrace(TraceProfile profile);

  const TraceGeometry& geometry() const override {
    return profile_.geometry;
  }
  std::optional<TraceRecord> next() override;
  std::uint64_t size_hint() const override {
    return profile_.requests - emitted_;
  }

  const TraceProfile& profile() const { return profile_; }

 private:
  std::int64_t pick_block(bool is_write, int count);
  std::int64_t fresh_block(int count);

  TraceProfile profile_;
  Rng rng_;
  LruStack stack_;  // sized at the first record
  std::unique_ptr<AliasSampler> disk_weights_;
  std::unique_ptr<ZipfSampler> zone_sampler_;
  std::vector<std::int64_t> cursor_;       // per-disk sequential cursor
  std::uint64_t emitted_ = 0;
  std::uint64_t burst_remaining_ = 0;
  std::uint64_t cluster_bursts_remaining_ = 0;
  double inter_cluster_gap_ms_ = 0.0;
  int last_disk_ = -1;
  bool in_burst_ = false;
};

}  // namespace raidsim
