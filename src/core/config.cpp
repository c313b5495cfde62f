#include "core/config.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace raidsim {

namespace {

/// Hostile-input hardening: every floating-point knob must be a finite
/// number. NaN in particular sails through ordinary range checks (every
/// comparison with NaN is false) and then poisons event timestamps, so
/// it is rejected by name here rather than discovered as a hang later.
void require_finite(double value, const char* knob) {
  if (!std::isfinite(value))
    throw std::invalid_argument(std::string("SimulationConfig: ") + knob +
                                " must be a finite number");
}

}  // namespace

void SimulationConfig::validate() const {
  // Sanity ceilings for integer knobs. Way above any physical setup, but
  // low enough that a garbage value cannot drive allocation sizes: 10^5
  // disks per array or 2^16 shards is a typo, not a configuration.
  constexpr int kMaxDataDisks = 100000;
  constexpr int kMaxStripingUnitBlocks = 1 << 24;
  constexpr int kMaxShards = 1 << 16;

  if (array_data_disks < 1)
    throw std::invalid_argument("SimulationConfig: array_data_disks < 1");
  if (array_data_disks > kMaxDataDisks)
    throw std::invalid_argument(
        "SimulationConfig: array_data_disks absurdly large (max 100000)");
  if (striping_unit_blocks < 1)
    throw std::invalid_argument("SimulationConfig: striping_unit_blocks < 1");
  if (striping_unit_blocks > kMaxStripingUnitBlocks)
    throw std::invalid_argument(
        "SimulationConfig: striping_unit_blocks absurdly large (max 2^24)");
  if (parity_fine_grain_chunk_blocks < 0)
    throw std::invalid_argument(
        "SimulationConfig: negative parity_fine_grain_chunk_blocks");
  if (!disk_geometry.valid())
    throw std::invalid_argument("SimulationConfig: invalid disk geometry");
  require_finite(channel_mb_per_second, "channel_mb_per_second");
  if (channel_mb_per_second <= 0.0)
    throw std::invalid_argument("SimulationConfig: channel rate <= 0");
  if (track_buffers_per_disk < 1)
    throw std::invalid_argument("SimulationConfig: track buffers < 1");
  require_finite(disk_retry_backoff_ms, "disk_retry_backoff_ms");
  if (disk_retry_budget < 0 || disk_retry_backoff_ms < 0.0)
    throw std::invalid_argument("SimulationConfig: negative retry policy");
  if (cache_bytes < 0)
    throw std::invalid_argument("SimulationConfig: negative cache_bytes");
  if (cached && cache_bytes < disk_geometry.block_bytes())
    throw std::invalid_argument("SimulationConfig: cache smaller than a block");
  require_finite(destage_period_ms, "destage_period_ms");
  if (cached && destage_period_ms <= 0.0)
    throw std::invalid_argument("SimulationConfig: destage period <= 0");
  if (parity_caching &&
      (!cached || organization != Organization::kRaid4))
    throw std::invalid_argument(
        "SimulationConfig: parity caching requires cached RAID4");
  if (organization == Organization::kRaid4 && !cached)
    throw std::invalid_argument(
        "SimulationConfig: the paper only evaluates RAID4 with a cache");
  // SI holds a disk on its write gate until the partner op opens it; that
  // is deadlock-free only under FIFO, where service order matches issue
  // order. SSTF/SCAN can serve a gated op ahead of its gate opener on
  // another disk, forming a cross-disk wait cycle that silently strands
  // requests, so the combination is rejected rather than simulated wrong.
  if (sync == SyncPolicy::kSimultaneousIssue &&
      disk_scheduling != DiskScheduling::kFifo)
    throw std::invalid_argument(
        "SimulationConfig: SI sync requires FIFO disk scheduling "
        "(SSTF/SCAN reordering can deadlock gated writes)");
  if (shards < 0)
    throw std::invalid_argument("SimulationConfig: negative shards");
  if (shards > kMaxShards)
    throw std::invalid_argument(
        "SimulationConfig: shards absurdly large (max 65536)");
  if (shard_threads < 0)
    throw std::invalid_argument("SimulationConfig: negative shard_threads");
  if (shard_threads > kMaxShards)
    throw std::invalid_argument(
        "SimulationConfig: shard_threads absurdly large (max 65536)");
  if (obs.tracing && obs.max_trace_events == 0)
    throw std::invalid_argument("SimulationConfig: max_trace_events == 0");
  require_finite(obs.sample_interval_ms, "obs.sample_interval_ms");
  if (obs.sample_interval_ms > 0.0 && obs.sampler_capacity == 0)
    throw std::invalid_argument("SimulationConfig: sampler_capacity == 0");
}

std::string SimulationConfig::describe() const {
  std::ostringstream os;
  os << to_string(organization) << " N=" << array_data_disks;
  if (organization == Organization::kRaid5 ||
      organization == Organization::kRaid4 ||
      organization == Organization::kRaid10)
    os << " SU=" << striping_unit_blocks;
  if (organization == Organization::kParityStriping) {
    os << " parity=" << to_string(parity_placement);
    if (parity_fine_grain_chunk_blocks > 0)
      os << " fine=" << parity_fine_grain_chunk_blocks;
  }
  if (organization != Organization::kBase &&
      organization != Organization::kMirror)
    os << " sync=" << to_string(sync);
  if (cached) {
    os << " cache=" << (cache_bytes >> 20) << "MB";
    if (parity_caching) os << "+parity";
  } else {
    os << " uncached";
  }
  if (tail) os << " tail-policy";
  return os.str();
}

ArrayController::Config SimulationConfig::array_config(
    int data_disks, std::int64_t data_blocks_per_disk) const {
  ArrayController::Config cfg;
  cfg.layout.organization = organization;
  cfg.layout.data_disks = data_disks;
  cfg.layout.data_blocks_per_disk = data_blocks_per_disk;
  cfg.layout.physical_blocks_per_disk = disk_geometry.total_blocks();
  cfg.layout.striping_unit_blocks = striping_unit_blocks;
  cfg.layout.parity_placement = parity_placement;
  cfg.layout.parity_fine_grain_chunk_blocks = parity_fine_grain_chunk_blocks;
  cfg.disk_geometry = disk_geometry;
  cfg.seek = seek;
  cfg.sync = sync;
  cfg.disk_scheduling = disk_scheduling;
  cfg.channel_mb_per_second = channel_mb_per_second;
  cfg.track_buffers_per_disk = track_buffers_per_disk;
  cfg.fault.retry_budget = disk_retry_budget;
  cfg.fault.retry_backoff_ms = disk_retry_backoff_ms;
  cfg.tail = tail;
  return cfg;
}

CachedController::CacheConfig SimulationConfig::cache_config() const {
  CachedController::CacheConfig cfg;
  cfg.cache_bytes = cache_bytes;
  cfg.destage_period_ms = destage_period_ms;
  cfg.retain_old_data = retain_old_data;
  cfg.parity_caching = parity_caching;
  cfg.periodic_destage = periodic_destage;
  cfg.intent_journal = intent_journal;
  return cfg;
}

}  // namespace raidsim
