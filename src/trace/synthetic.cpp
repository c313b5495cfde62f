#include "trace/synthetic.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace raidsim {

std::uint64_t TraceProfile::distinct_block_bound() const {
  // A record touches one block, or with probability f a multiblock run of
  // C = min(1 + G, cap) blocks (at least 2), G geometric on {1, 2, ...}
  // with P(G > j) = q^j.
  double c1 = 2.0;  // E[C]
  double c2 = 4.0;  // E[C^2]
  if (multiblock_max_blocks > 2) {
    // C = 1 + Y with Y = min(G, m), m = cap - 1:
    //   E[Y] = sum_{j<m} q^j = s0,  E[Y^2] = sum_{j<m} (2j + 1) q^j,
    //   s1 = sum_{j<m} j q^j = q (1 - m q^(m-1) + (m-1) q^m) / (1-q)^2.
    const double prob = 1.0 / std::max(1.0, multiblock_mean_blocks - 1.0);
    const double q = 1.0 - prob;
    const double m = multiblock_max_blocks - 1.0;
    const double q_m1 = std::pow(q, m - 1.0);
    const double s0 = (1.0 - q_m1 * q) / prob;
    const double s1 =
        q * (1.0 - m * q_m1 + (m - 1.0) * q_m1 * q) / (prob * prob);
    c1 = 1.0 + s0;
    c2 = 1.0 + 2.0 * s0 + (s0 + 2.0 * s1);
  }
  // The run is cold. A single-block record is cold unless it reuses
  // (probability r) a depth the stack already holds: with S blocks
  // stacked, P(depth < S) = cdf(S). So the expected stack size S(n) after
  // n records follows
  //   dS/dn = f E[C] + (1 - f) (1 - w r_w F_w(S) - (1 - w) r_r F_r(S)),
  // w the single-block write fraction. The slope falls as S grows, so
  // forward Euler steps overestimate S. Cold blocks are counted as new,
  // although a fresh access may land on a block already stacked (full
  // trace 1 at seeds 0-2: a bound of 2.63 M, 2.14-2.16 M distinct).
  constexpr int kSteps = 128;
  const double f = std::clamp(multiblock_fraction, 0.0, 1.0);
  const double w = std::clamp(single_write_fraction, 0.0, 1.0);
  const auto n = static_cast<double>(requests);
  const auto limit = static_cast<double>(geometry.total_blocks());
  const double step = n / kSteps;
  double stacked = 0.0;
  for (int i = 0; i < kSteps && stacked < limit; ++i) {
    const double cold = 1.0 -
                        w * write_reuse_prob * write_depth.cdf(stacked) -
                        (1.0 - w) * read_reuse_prob * read_depth.cdf(stacked);
    stacked += step * (f * c1 + (1.0 - f) * cold);
  }
  // Plus three standard deviations of the cold-block count, a sum over
  // the records of cold blocks X with E[X^2] = P(cold) for a
  // single-block record and E[C^2] for a multiblock one. Three suffice
  // because the estimate already errs high.
  const double cold_singles = std::max(0.0, stacked - n * f * c1);
  const double bound = stacked + 3.0 * std::sqrt(cold_singles + n * f * c2);
  return static_cast<std::uint64_t>(std::ceil(std::min(bound, limit)));
}

TraceProfile TraceProfile::trace1() {
  TraceProfile p;
  p.name = "trace1";
  p.geometry.data_disks = 130;
  p.geometry.blocks_per_disk = 226000;
  p.duration_s = 3.0 * 3600.0 + 3.0 * 60.0;  // 3 hr 3 min
  p.requests = 3362505;
  p.single_write_fraction = 0.095;
  p.multi_write_fraction = 0.34;
  p.multiblock_fraction = 0.0213;
  p.multiblock_mean_blocks = 16.4;
  p.multiblock_max_blocks = 64;
  // High temporal locality. Depth medians are calibrated for the default
  // N = 10 configuration (13 arrays share the load, so a per-array cache
  // of C blocks corresponds to a global stack depth of roughly 13 C):
  // read hit ~10% at 8 MB/array rising past 40% at 256 MB/array; write
  // hit ~0.8-0.9 because blocks are usually read by the transaction
  // before being updated (the paper reports ~1; a cold-write residue is
  // kept so the destage pipeline stays exercised -- see EXPERIMENTS.md).
  p.read_reuse_prob = 0.62;
  p.read_depth = LognormalMixture{{{1.0, 155000.0, 1.8}}};
  p.write_reuse_prob = 0.97;
  p.write_depth = LognormalMixture{{{1.0, 4000.0, 1.6}}};
  p.disk_skew_sigma = 0.5;
  p.sequential_prob = 0.55;
  p.zones_per_disk = 96;
  p.zone_zipf_theta = 0.92;
  p.burst_mean_requests = 16.0;
  p.intra_burst_gap_ms = 0.35;
  p.burst_disk_affinity = 0.35;
  p.cluster_mean_bursts = 48.0;
  p.intra_cluster_gap_ms = 2.0;
  p.seed = 20130901;
  return p;
}

TraceProfile TraceProfile::trace2() {
  TraceProfile p;
  p.name = "trace2";
  p.geometry.data_disks = 10;
  p.geometry.blocks_per_disk = 226000;
  p.duration_s = 100.0 * 60.0;  // 1 hr 40 min
  p.requests = 69539;
  p.single_write_fraction = 0.266;
  p.multi_write_fraction = 0.51;
  p.multiblock_fraction = 0.0593;
  p.multiblock_mean_blocks = 18.7;
  p.multiblock_max_blocks = 64;
  // Weak locality, large working sets (ad-hoc queries in the mix):
  // read hit < 1% at 8 MB rising to ~40% at 256 MB; write hit ~20%
  // rising past 60%.
  p.read_reuse_prob = 0.50;
  p.read_depth = LognormalMixture{{{1.0, 30000.0, 1.3}}};
  p.write_reuse_prob = 0.80;
  p.write_depth =
      LognormalMixture{{{0.3, 500.0, 1.2}, {0.7, 25000.0, 1.3}}};
  p.disk_skew_sigma = 0.95;
  p.sequential_prob = 0.15;
  p.zones_per_disk = 64;
  p.zone_zipf_theta = 0.8;
  p.burst_mean_requests = 20.0;
  p.intra_burst_gap_ms = 2.2;
  p.burst_disk_affinity = 0.5;
  p.cluster_mean_bursts = 10.0;
  p.intra_cluster_gap_ms = 70.0;
  p.seed = 19931609;
  return p;
}

TraceProfile TraceProfile::by_name(const std::string& name) {
  if (name == "trace1") return trace1();
  if (name == "trace2") return trace2();
  throw std::invalid_argument("TraceProfile: unknown preset '" + name + "'");
}

SyntheticTrace::SyntheticTrace(TraceProfile profile)
    : profile_(std::move(profile)), rng_(profile_.seed) {
  const auto& geo = profile_.geometry;
  if (geo.data_disks < 1 || geo.blocks_per_disk < 1)
    throw std::invalid_argument("SyntheticTrace: bad geometry");
  if (geo.total_blocks() >= LruStack::kBlockLimit)
    throw std::invalid_argument(
        "SyntheticTrace: geometry has 2^32 - 1 or more blocks");
  if (profile_.requests == 0)
    throw std::invalid_argument("SyntheticTrace: zero requests");

  std::vector<double> weights(static_cast<std::size_t>(geo.data_disks));
  for (auto& w : weights)
    w = rng_.lognormal(0.0, profile_.disk_skew_sigma);
  disk_weights_ = std::make_unique<AliasSampler>(weights);
  zone_sampler_ = std::make_unique<ZipfSampler>(
      static_cast<std::uint64_t>(profile_.zones_per_disk),
      profile_.zone_zipf_theta);
  cursor_.assign(static_cast<std::size_t>(geo.data_disks), -1);

  // Arrival process: requests come in bursts (transactions), bursts come
  // in clusters (busy periods), and clusters are separated by idle gaps
  // sized so the trace fills its duration:
  //   duration = n_clusters * (cluster_busy + G)
  //   cluster_busy = c * ((m - 1) * g_request + g_burst)
  const double m = std::max(1.0, profile_.burst_mean_requests);
  const double c = std::max(1.0, profile_.cluster_mean_bursts);
  const double n_clusters =
      static_cast<double>(profile_.requests) / (m * c);
  const double cluster_busy =
      c * ((m - 1.0) * profile_.intra_burst_gap_ms +
           profile_.intra_cluster_gap_ms);
  const double duration_ms = profile_.duration_s * 1000.0;
  inter_cluster_gap_ms_ =
      std::max(0.01, duration_ms / n_clusters - cluster_busy);
}

std::int64_t SyntheticTrace::fresh_block(int count) {
  const auto& geo = profile_.geometry;
  int disk;
  if (in_burst_ && last_disk_ >= 0 &&
      rng_.bernoulli(profile_.burst_disk_affinity)) {
    disk = last_disk_;  // transaction touches related data
  } else {
    disk = static_cast<int>(disk_weights_->sample(rng_));
  }
  last_disk_ = disk;
  const std::int64_t base = static_cast<std::int64_t>(disk) *
                            geo.blocks_per_disk;
  auto& cursor = cursor_[static_cast<std::size_t>(disk)];
  if (cursor >= 0 && rng_.bernoulli(profile_.sequential_prob) &&
      cursor + count < geo.blocks_per_disk) {
    const std::int64_t block = base + cursor + 1;
    cursor += count;
    return block;
  }
  // Start a new run inside a hot zone. Hot zones are permuted per disk so
  // different disks have different hot regions.
  const int zones = profile_.zones_per_disk;
  const auto zone = static_cast<int>(
      (zone_sampler_->sample(rng_) + static_cast<std::uint64_t>(disk) * 7) %
      static_cast<std::uint64_t>(zones));
  const std::int64_t zone_blocks = geo.blocks_per_disk / zones;
  const std::int64_t zone_start = zone * zone_blocks;
  const std::int64_t room = std::max<std::int64_t>(1, zone_blocks - count);
  const std::int64_t offset =
      zone_start + static_cast<std::int64_t>(rng_.uniform_u64(
                       static_cast<std::uint64_t>(room)));
  cursor = offset + count - 1;
  return base + offset;
}

std::int64_t SyntheticTrace::pick_block(bool is_write, int count) {
  const auto& geo = profile_.geometry;
  if (count == 1) {
    const double reuse_prob =
        is_write ? profile_.write_reuse_prob : profile_.read_reuse_prob;
    if (stack_.size() > 0 && rng_.bernoulli(reuse_prob)) {
      const auto& depth_dist =
          is_write ? profile_.write_depth : profile_.read_depth;
      const auto depth = static_cast<std::size_t>(depth_dist.sample(rng_));
      if (auto block = stack_.at_depth(depth)) return *block;
      // Sampled deeper than the current stack: treat as a cold access.
    }
    return fresh_block(1);
  }
  // Multiblock requests model scans/batch updates: sequential, cold.
  std::int64_t block = fresh_block(count);
  // Clamp so the request does not cross the original disk boundary
  // (trace addresses are per-disk in the source systems).
  const std::int64_t disk_end =
      (block / geo.blocks_per_disk + 1) * geo.blocks_per_disk;
  if (block + count > disk_end) block = disk_end - count;
  return block;
}

std::optional<TraceRecord> SyntheticTrace::next() {
  if (emitted_ >= profile_.requests) return std::nullopt;
  if (emitted_ == 0) {
    // Sized here rather than in the constructor, so building a trace
    // stays cheap.
    stack_.reserve(profile_.distinct_block_bound());
  }
  ++emitted_;

  TraceRecord rec;
  if (burst_remaining_ == 0) {
    burst_remaining_ = rng_.geometric(1.0 / profile_.burst_mean_requests);
    if (cluster_bursts_remaining_ == 0) {
      cluster_bursts_remaining_ =
          rng_.geometric(1.0 / std::max(1.0, profile_.cluster_mean_bursts));
      rec.delta_ms = rng_.exponential(inter_cluster_gap_ms_);
    } else {
      rec.delta_ms = rng_.exponential(profile_.intra_cluster_gap_ms);
    }
    --cluster_bursts_remaining_;
    in_burst_ = false;  // the first access of a burst picks a fresh disk
  } else {
    rec.delta_ms = rng_.exponential(profile_.intra_burst_gap_ms);
    in_burst_ = true;
  }
  --burst_remaining_;

  const bool multi = rng_.bernoulli(profile_.multiblock_fraction);
  if (multi) {
    const double mean_extra = std::max(1.0, profile_.multiblock_mean_blocks - 1.0);
    const auto extra = rng_.geometric(1.0 / mean_extra);
    rec.block_count = static_cast<int>(
        std::min<std::uint64_t>(1 + extra,
                                static_cast<std::uint64_t>(
                                    profile_.multiblock_max_blocks)));
    if (rec.block_count < 2) rec.block_count = 2;
    rec.is_write = rng_.bernoulli(profile_.multi_write_fraction);
  } else {
    rec.block_count = 1;
    rec.is_write = rng_.bernoulli(profile_.single_write_fraction);
  }

  rec.block = pick_block(rec.is_write, rec.block_count);
  for (int i = 0; i < rec.block_count; ++i) stack_.touch(rec.block + i);
  return rec;
}

}  // namespace raidsim
