#pragma once

#include <cstdint>
#include <string>

#include "array/cached_controller.hpp"
#include "array/controller.hpp"
#include "disk/geometry.hpp"
#include "disk/seek_model.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"

namespace raidsim {

/// Complete configuration of one simulated I/O subsystem. Defaults
/// reproduce the paper's Tables 1 and 4: N = 10, 4 KB blocks, Disk First
/// synchronization, 1-block striping unit, middle-cylinder parity
/// placement, 16 MB cache per array when caching is enabled.
struct SimulationConfig {
  Organization organization = Organization::kRaid5;
  int array_data_disks = 10;  // N
  int striping_unit_blocks = 1;
  SyncPolicy sync = SyncPolicy::kDiskFirst;
  ParityPlacement parity_placement = ParityPlacement::kMiddleCylinders;
  /// Parity Striping only: > 0 rotates the parity-update load across the
  /// disks at this chunk granularity (the paper's Section 5 future-work
  /// variant); 0 = classic Parity Striping.
  int parity_fine_grain_chunk_blocks = 0;

  DiskGeometry disk_geometry;  // Table 1
  SeekSpec seek;               // Table 1 (11.2 ms avg, 28 ms max)
  /// Dispatch order within a disk's priority class. The paper services
  /// requests in arrival order (FIFO); SSTF/SCAN for ablations.
  DiskScheduling disk_scheduling = DiskScheduling::kFifo;
  double channel_mb_per_second = 10.0;
  int track_buffers_per_disk = 5;

  /// Fault handling (fault-injection support): transient errors are
  /// retried with exponential backoff until the budget runs out, at
  /// which point the disk is declared dead.
  int disk_retry_budget = 3;
  double disk_retry_backoff_ms = 5.0;

  bool cached = false;
  std::int64_t cache_bytes = 16ll << 20;  // per array
  double destage_period_ms = 300.0;
  bool retain_old_data = true;
  /// RAID4 with parity caching (Section 4.4). Requires `cached` and
  /// organization == kRaid4.
  bool parity_caching = false;
  /// false = pure LRU writeback; ablation of the periodic destage policy.
  bool periodic_destage = true;
  /// Cached arrays only: record stripe-update intents in an NVRAM journal
  /// so a crash-recovery pass can resync exactly the dirty stripes
  /// instead of the whole array (see docs/fault_model.md).
  bool intent_journal = false;

  /// Intra-run sharding (core/simulator.hpp). 0 = one event kernel that
  /// stops every array's destage timer when the run's last request
  /// completes. >= 1 partitions the arrays of THIS run into that many
  /// independent event kernels executed on a thread pool (clamped to the
  /// array count) and stops each array's destage timer at that array's
  /// last response; merged metrics are bit-identical at any shard/thread
  /// count >= 1, and differ from shards = 0 only in the destage tail (see
  /// docs/performance.md). Every shard count streams the trace through
  /// the same bounded windowed feed.
  int shards = 0;
  /// Worker threads for shards >= 1; 0 = min(shards, hardware
  /// concurrency). A shards >= 1 run uses these workers plus the calling
  /// thread, which reads the trace one window ahead of them. Thread count
  /// never changes results, only wall time.
  int shard_threads = 0;

  /// Single-valued and ignored by the simulator; kept only because
  /// bench/e2e/layers.cpp still reads them (see EventKernel in
  /// sim/event_queue.hpp). Excluded from the job cache key.
  EventKernel event_kernel = EventKernel::kCalendar;
  OpAlloc op_alloc = OpAlloc::kArena;

  /// Observability (src/obs). Tracing records request-lifecycle spans by
  /// passive appends only -- it never schedules events, so a traced run
  /// executes exactly the same kernel events as an untraced one. The
  /// sampler does tick on the event queue (sample_interval_ms > 0).
  struct Obs {
    bool tracing = false;
    /// Tracer ring capacity; oldest events are overwritten when full.
    std::size_t max_trace_events = 1u << 22;
    double sample_interval_ms = 0.0;  // <= 0 disables the sampler
    std::size_t sampler_capacity = 4096;
  };
  Obs obs;

  /// Fail-slow mitigation on every array's demand reads: the one preset
  /// of ArrayController::Config::tail (docs/fault_model.md, "Fail-slow
  /// model"). Off by default: an off run issues exactly the same events
  /// as one built before the mechanism existed.
  bool tail = false;

  /// Throws std::invalid_argument when inconsistent.
  void validate() const;

  /// One-line human-readable summary.
  std::string describe() const;

  ArrayController::Config array_config(int data_disks,
                                       std::int64_t data_blocks_per_disk) const;
  CachedController::CacheConfig cache_config() const;
};

}  // namespace raidsim
