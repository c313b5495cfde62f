#pragma once

#include <deque>
#include <map>
#include <vector>

#include "array/controller.hpp"
#include "cache/nv_cache.hpp"

namespace raidsim {

/// Array controller with a non-volatile cache (Section 3.4):
///
///  * read hits are served at channel speed; misses fetch from disk and
///    wait for a dirty LRU victim's writeback when one is replaced;
///  * writes complete once the data are in the NV cache; a periodic
///    background destage process groups consecutive dirty blocks and
///    writes them back at low disk priority, spread across the destage
///    period so they interfere minimally with demand reads;
///  * parity organizations retain the old content of dirtied blocks so
///    the destage does not re-read it; the old parity is still read on
///    the parity disk (read-modify-write);
///  * with `parity_caching` (RAID4, Section 4.4) parity updates are
///    buffered in the same cache and spooled to the dedicated parity
///    disk in SCAN order; when parity fills the cache, writes stall until
///    a slot frees.
class CachedController : public ArrayController {
 public:
  struct CacheConfig {
    std::int64_t cache_bytes = 16ll << 20;
    double destage_period_ms = 300.0;
    /// Retain old data for parity organizations (auto-ignored for
    /// Base/Mirror). Exposed for the old-data-retention ablation.
    bool retain_old_data = true;
    /// Longest run of consecutive dirty blocks destaged as one access.
    int max_destage_run_blocks = 64;
    /// RAID4 with parity caching.
    bool parity_caching = false;
    /// false = pure LRU writeback (dirty blocks leave only as eviction
    /// victims); used by the destage-policy ablation.
    bool periodic_destage = true;
    /// Write-hole closure: record every stripe-update intent in an NVRAM
    /// journal before issuing its disk writes (parity organizations
    /// only). Costs no simulated time; recovery replays open intents.
    bool intent_journal = false;
  };

  CachedController(EventQueue& eq, const Config& config,
                   const CacheConfig& cache_config);

  void submit(const ArrayRequest& request,
              Completion on_complete) override;

  /// Cancel the periodic destage timer (call once the workload is fully
  /// drained; in-flight work still completes).
  void shutdown() override;

  bool holds_work() const override;

  const NvCache::Stats* cache_stats() const override {
    return &cache_.stats();
  }

  const NvCache* nv_cache() const override { return &cache_; }

  /// Controller crash: in addition to the base-class behaviour (disks
  /// lose power, journal survives or wipes), parked writes are dropped,
  /// the destage timer stops, and the NV cache either survives with its
  /// in-flight destage state reset (`preserve_nvram`) or is wiped.
  void crash_halt(bool preserve_nvram) override;
  void crash_restart() override;

  const NvCache& cache() const { return cache_; }
  std::size_t parity_queue_length() const { return spool_.size(); }

 private:
  void submit_read(const ArrayRequest& request,
                   Completion on_complete);
  void submit_write(const ArrayRequest& request,
                    Completion on_complete);

  /// Try to push the request's blocks into the cache; returns false and
  /// parks the request when the cache has no usable slot.
  struct StalledWrite {
    std::vector<std::int64_t> blocks;
    std::size_t next = 0;
    std::uint64_t obs_id = 0;  // host span the stall markers attach to
    Completion on_complete;
  };
  void try_cache_writes(OpRef<StalledWrite> write);
  void pump_stalled();

  void schedule_destage_tick();
  void destage_tick();
  /// Write one run of consecutive dirty logical blocks back to disk.
  void issue_destage_run(std::int64_t start_block, int count);
  /// Synchronous writeback of an evicted dirty block; `done` fires when
  /// it is on disk (including its parity update).
  void victim_writeback(std::int64_t block, Completion done);
  /// Execute one update plan routing the parity through the RAID4 spool.
  void execute_update_spooled(const StripeUpdate& update,
                              Completion done);

  /// Every block of the extent has its old copy retained in the cache.
  bool old_data_cached(const PhysicalExtent& extent) const override;

  // RAID4 parity spool. Entries carry the audit covers of the stripe
  // update that buffered them plus callbacks to fire when the parity
  // lands (the journal's parity-durable arrival).
  struct SpoolEntry {
    bool full_stripe = false;
    std::vector<ParityCover> covers;
    std::vector<Completion> on_durable;
  };
  void add_spool_entry(std::int64_t parity_block, bool full_stripe,
                       std::vector<ParityCover> covers,
                       Completion on_durable);
  void pump_spooler();

  NvCache cache_;
  CacheConfig cache_config_;
  bool parity_org_;
  EventId destage_event_ = 0;
  bool shutdown_ = false;
  std::deque<OpRef<StalledWrite>> stalled_;
  std::unique_ptr<IntentJournal> journal_owned_;

  // Parity spool state: key = physical block on the parity disk.
  std::map<std::int64_t, SpoolEntry> spool_;
  std::int64_t scan_position_ = 0;
  bool spooling_ = false;
  std::int64_t spooling_block_ = -1;  // in-service entry (crash requeue)
  SpoolEntry spooling_entry_;
};

}  // namespace raidsim
