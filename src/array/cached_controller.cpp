#include "array/cached_controller.hpp"

#include <algorithm>
#include <cassert>

#include "util/arena.hpp"

namespace raidsim {

namespace {

bool is_parity_org(Organization org) {
  return org == Organization::kRaid4 || org == Organization::kRaid5 ||
         org == Organization::kParityStriping;
}

}  // namespace

CachedController::CachedController(EventQueue& eq, const Config& config,
                                   const CacheConfig& cache_config)
    : ArrayController(eq, config),
      cache_(static_cast<std::size_t>(
                 std::max<std::int64_t>(1, cache_config.cache_bytes /
                                               config.disk_geometry.block_bytes())),
             cache_config.retain_old_data &&
                 is_parity_org(config.layout.organization)),
      cache_config_(cache_config),
      parity_org_(is_parity_org(config.layout.organization)) {
  if (cache_config_.parity_caching &&
      config.layout.organization != Organization::kRaid4)
    throw std::invalid_argument(
        "CachedController: parity caching requires the RAID4 organization");
  if (cache_config_.intent_journal && parity_org_) {
    journal_owned_ = std::make_unique<IntentJournal>();
    attach_journal(journal_owned_.get());
  }
  schedule_destage_tick();
}

void CachedController::crash_halt(bool preserve_nvram) {
  if (crashed()) return;
  ArrayController::crash_halt(preserve_nvram);  // disks + journal
  if (destage_event_ != 0) {
    eq_.cancel(destage_event_);
    destage_event_ = 0;
  }
  stats_.crash_aborted_host_writes +=
      static_cast<std::uint64_t>(stalled_.size());
  stalled_.clear();
  // The parity spool never survives: the queued XOR deltas are computed
  // in controller volatile memory, not in the NV cache. Losing them mid
  // stripe-update is precisely the write hole -- the data blocks stay
  // safely dirty in NVRAM, but the parity update they were part of is
  // gone. crash_reset() zeroes the parity slots the entries reserved.
  spool_.clear();
  spooling_ = false;
  spooling_block_ = -1;
  spooling_entry_ = SpoolEntry{};
  cache_.crash_reset(preserve_nvram);
  if (!preserve_nvram && auditor_) auditor_->wipe_nvram();
}

void CachedController::crash_restart() {
  if (!crashed()) return;
  ArrayController::crash_restart();
  schedule_destage_tick();
  pump_spooler();
}

void CachedController::shutdown() {
  shutdown_ = true;
  if (destage_event_ != 0) {
    eq_.cancel(destage_event_);
    destage_event_ = 0;
  }
}

bool CachedController::holds_work() const {
  return cache_.dirty_count() > 0 || !stalled_.empty() || spooling_ ||
         !spool_.empty() || ArrayController::holds_work();
}

void CachedController::submit(const ArrayRequest& request,
                              Completion on_complete) {
  if (crashed()) return;  // controller down: the request dies unanswered
  if (!on_complete) on_complete = [](SimTime) {};
  if (request.is_write) {
    submit_write(request, std::move(on_complete));
  } else {
    submit_read(request, std::move(on_complete));
  }
}

void CachedController::submit_read(const ArrayRequest& request,
                                   Completion on_complete) {
  ++stats_.read_requests;

  // A multiblock request is a hit only when every block is cached
  // (Section 4.3).
  bool all_cached = true;
  for (int i = 0; i < request.block_count; ++i)
    all_cached = all_cached && cache_.contains(request.logical_block + i);
  for (int i = 0; i < request.block_count; ++i)
    cache_.read(request.logical_block + i);

  obs_instant(tracer_, all_cached ? ObsPhase::kCacheHit : ObsPhase::kCacheMiss,
              array_index_, -1, eq_.now(), request.obs_id);

  const std::int64_t bytes = block_bytes(request.block_count);
  if (all_cached) {
    ++stats_.read_request_hits;
    channel_->transfer(bytes, std::move(on_complete));
    return;
  }

  // Miss: fetch the extent from disk; dirty LRU victims displaced by the
  // fill must reach the disk before the response completes (Section 3.4).
  auto extents = layout_->map_read(request.logical_block, request.block_count);
  auto barrier = Barrier::create(eq_.op_arena(),
      static_cast<int>(extents.size()),
      [this, bytes, on_complete = std::move(on_complete)](SimTime) mutable {
        channel_->transfer(bytes, std::move(on_complete));
      });
  for (auto extent : extents) {
    extent.disk = choose_mirror_read_disk(extent);
    tail_read(extent, DiskPriority::kNormal,
              [this, extent, barrier](SimTime t) {
                for (int i = 0; i < extent.block_count; ++i) {
                  const std::int64_t block = extent.logical_start + i;
                  const auto result = cache_.insert_clean(block);
                  if (result.inserted && result.evicted_dirty) {
                    barrier->expect(1);
                    ++stats_.sync_victim_writes;
                    if (auditor_) auditor_->nvram_evict(result.victim);
                    victim_writeback(result.victim, [barrier](SimTime tv) {
                      barrier->arrive(tv);
                    });
                  }
                }
                barrier->arrive(t);
              });
  }
}

void CachedController::submit_write(const ArrayRequest& request,
                                    Completion on_complete) {
  ++stats_.write_requests;
  bool all_cached = true;
  for (int i = 0; i < request.block_count; ++i)
    all_cached = all_cached && cache_.contains(request.logical_block + i);
  if (all_cached) ++stats_.write_request_hits;
  obs_instant(tracer_, all_cached ? ObsPhase::kCacheHit : ObsPhase::kCacheMiss,
              array_index_, -1, eq_.now(), request.obs_id);

  auto state = make_op<StalledWrite>(eq_.op_arena());
  state->blocks.reserve(static_cast<std::size_t>(request.block_count));
  for (int i = 0; i < request.block_count; ++i)
    state->blocks.push_back(request.logical_block + i);
  state->obs_id = request.obs_id;
  state->on_complete = std::move(on_complete);

  // Data cross the channel into the NV cache; the response completes once
  // every block is safely cached (the destage to disk is asynchronous).
  channel_->transfer(block_bytes(request.block_count),
                     [this, state](SimTime) { try_cache_writes(state); });
}

void CachedController::try_cache_writes(OpRef<StalledWrite> write) {
  if (crashed()) {
    // Channel transfer landed after the crash: the request dies with the
    // controller (the host never hears back).
    ++stats_.crash_aborted_host_writes;
    return;
  }
  while (write->next < write->blocks.size()) {
    const std::int64_t block = write->blocks[write->next];
    const auto result = cache_.write(block);
    if (!result.accepted) {
      ++stats_.write_stalls;
      obs_instant(tracer_, ObsPhase::kWriteStall, array_index_, -1, eq_.now(),
                  write->obs_id);
      stalled_.push_back(write);
      return;
    }
    if (auditor_) {
      // The old copy (if captured) snapshots the pre-write disk content;
      // acceptance into the NV cache IS the host acknowledgement.
      if (result.captured_old) auditor_->old_captured(block);
      const std::uint64_t gen = auditor_->host_write(block);
      auditor_->nvram_put(block, gen);
      auditor_->acknowledge(block, gen);
    }
    if (result.evicted_dirty) {
      // Asynchronous writeback of the displaced dirty block; write
      // responses do not wait for it.
      ++stats_.sync_victim_writes;
      if (auditor_) auditor_->nvram_evict(result.victim);
      victim_writeback(result.victim, nullptr);
    }
    ++write->next;
  }
  write->on_complete(eq_.now());
}

void CachedController::pump_stalled() {
  // Retry parked writes in order; try_cache_writes re-appends a write
  // that stalls again, so stop as soon as one fails to finish.
  while (!stalled_.empty()) {
    auto write = stalled_.front();
    stalled_.pop_front();
    try_cache_writes(write);
    if (write->next < write->blocks.size()) break;  // still stalled
  }
}

void CachedController::victim_writeback(std::int64_t block, Completion done) {
  // The victim left the cache together with any old-data copy
  // (NvCache::make_room drops it), so the parity update takes the full
  // read-modify-write path. RAID4 victims bypass the spool (the paper's
  // "serviced directly from disk" case).
  auto plans = layout_->map_write(block, 1);
  auto barrier = Barrier::create(eq_.op_arena(),
      static_cast<int>(plans.size()),
      done ? std::move(done) : [](SimTime) {});
  for (const auto& plan : plans)
    execute_update(plan, [barrier](SimTime t) { barrier->arrive(t); });
}

bool CachedController::old_data_cached(const PhysicalExtent& extent) const {
  if (extent.logical_start < 0) return false;
  for (int i = 0; i < extent.block_count; ++i)
    if (!cache_.has_old(extent.logical_start + i)) return false;
  return true;
}

void CachedController::schedule_destage_tick() {
  if (!cache_config_.periodic_destage || shutdown_) return;
  destage_event_ = eq_.schedule_in(cache_config_.destage_period_ms,
                                   [this] { destage_tick(); });
}

void CachedController::destage_tick() {
  destage_event_ = 0;
  if (crashed()) return;
  obs_instant(tracer_, ObsPhase::kDestageTick, array_index_, -1, eq_.now());
  auto dirty = cache_.collect_dirty();
  std::sort(dirty.begin(), dirty.end());

  // Group consecutive logical blocks into runs.
  struct Run {
    std::int64_t start;
    int count;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < dirty.size();) {
    std::size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1 &&
           static_cast<int>(j - i) < cache_config_.max_destage_run_blocks)
      ++j;
    runs.push_back(Run{dirty[i], static_cast<int>(j - i)});
    i = j;
  }

  // Spread the destage writes progressively across the period so they
  // interfere minimally with the read traffic (Section 3.4).
  const double period = cache_config_.destage_period_ms;
  const auto n = static_cast<double>(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run run = runs[i];
    const double offset = period * (static_cast<double>(i) + 0.5) / n;
    eq_.schedule_in(offset,
                    [this, run] { issue_destage_run(run.start, run.count); });
  }
  schedule_destage_tick();
}

void CachedController::issue_destage_run(std::int64_t start_block, int count) {
  // A destage offset scheduled before a crash may fire after it: the
  // crash already discarded this work.
  if (crashed()) return;
  // Blocks may have been destaged (victim path) or begun flight since the
  // tick; re-derive the eligible sub-runs.
  int i = 0;
  while (i < count) {
    while (i < count && !cache_.destage_eligible(start_block + i)) ++i;
    if (i >= count) return;
    int j = i;
    while (j < count && cache_.destage_eligible(start_block + j)) ++j;

    const std::int64_t sub_start = start_block + i;
    const int sub_count = j - i;
    auto plans = layout_->map_write(sub_start, sub_count);

    bool use_spool = cache_config_.parity_caching && failed_disk_ < 0;
    if (use_spool) {
      // Reserve a spool slot for every parity block across all plans up
      // front (coalescing with an existing entry releases the extra slot
      // later). When the cache has no room for the parity update, this
      // run is serviced directly from disk instead -- the paper's
      // behaviour when the parity queue occupies the entire cache.
      int needed = 0;
      for (const auto& plan : plans)
        if (plan.parity.valid()) needed += plan.parity.block_count;
      int reserved = 0;
      while (reserved < needed && cache_.try_reserve_parity_slot()) ++reserved;
      if (reserved < needed) {
        ++stats_.parity_reservation_failures;
        for (int r = 0; r < reserved; ++r) cache_.release_parity_slot();
        use_spool = false;
      }
    }

    for (int b = 0; b < sub_count; ++b) cache_.begin_destage(sub_start + b);
    stats_.destage_blocks += static_cast<std::uint64_t>(sub_count);

    const std::uint64_t span =
        obs_begin(tracer_, ObsPhase::kDestage, array_index_, -1, eq_.now());
    auto barrier = Barrier::create(eq_.op_arena(),
        static_cast<int>(plans.size()),
        [this, sub_start, sub_count, span](SimTime t) {
          for (int b = 0; b < sub_count; ++b) cache_.end_destage(sub_start + b);
          obs_end(tracer_, span, ObsPhase::kDestage, array_index_, -1, t);
          pump_stalled();
        });
    for (const auto& plan : plans) {
      stats_.destage_writes += static_cast<std::uint64_t>(plan.writes.size());
      if (use_spool) {
        execute_update_spooled(plan,
                               [barrier](SimTime t) { barrier->arrive(t); });
      } else {
        execute_update(plan, [barrier](SimTime t) { barrier->arrive(t); });
      }
    }
    i = j;
  }
}

void CachedController::execute_update_spooled(
    const StripeUpdate& update, Completion done) {
  // Data writes go to the data disks as in the plain cached path; the
  // parity update is captured in the cache (as a full parity block for
  // full stripes, as the xor of old and new data otherwise) and spooled
  // to the dedicated parity disk asynchronously. The destage of the data
  // is complete once the data are on disk -- the buffered parity is
  // already stable in the NV cache.
  const bool full = update.full_stripe;
  // Per-piece delta source (a full stripe needs none), also needed for
  // the audit covers.
  const DataPieces data = data_pieces(update.writes, /*old_data_known=*/!full);
  auto covers = parity_covers(data);

  // Intent journal: the update retires only when the data writes AND the
  // spooled parity have both landed (the spool entry carries the parity
  // arrival as an on_durable callback).
  const auto intent = open_intent(update, 2);
  auto completion = Barrier::create(eq_.op_arena(),
      static_cast<int>(data.extents.size()),
      [intent, done = std::move(done)](SimTime t) {
        if (intent) intent->arrive(t);
        if (done) done(t);
      });

  const PhysicalExtent parity = update.parity;
  auto enqueue_parity = [this, parity, full, covers = std::move(covers),
                         intent](SimTime) {
    if (!parity.valid()) return;
    for (int b = 0; b < parity.block_count; ++b) {
      const bool first = b == 0;
      Completion on_durable;
      if (first && intent)
        on_durable = [intent](SimTime t) { intent->arrive(t); };
      add_spool_entry(parity.start_block + b, full,
                      first ? covers : std::vector<ParityCover>{},
                      std::move(on_durable));
    }
  };

  if (full) {
    // Full stripe: parity computed from new data, available immediately.
    enqueue_parity(eq_.now());
    for (const auto& piece : data.extents) {
      auto tap = audit_data_write(
          piece, [completion](SimTime t) { completion->arrive(t); });
      disk_write(piece, DiskPriority::kNormal, std::move(tap.on_complete),
                 std::move(tap.on_power_fail));
    }
    return;
  }

  // Partial update: the xor-delta needs the old data of every modified
  // piece -- either already retained in the cache or read by the data
  // disk's RMW pass.
  auto delta_barrier =
      Barrier::create(eq_.op_arena(), data.reads, enqueue_parity);
  if (data.reads == 0) enqueue_parity(eq_.now());
  issue_rmw_data(data, delta_barrier, nullptr, completion);
}

void CachedController::add_spool_entry(std::int64_t parity_block,
                                       bool full_stripe,
                                       std::vector<ParityCover> covers,
                                       Completion on_durable) {
  if (auto it = spool_.find(parity_block); it != spool_.end()) {
    // Coalesce: a later full-stripe parity supersedes a pending delta;
    // the reserved slot is shared, so release the extra reservation.
    SpoolEntry& existing = it->second;
    existing.full_stripe = existing.full_stripe || full_stripe;
    for (auto& c : covers) existing.covers.push_back(std::move(c));
    if (on_durable) existing.on_durable.push_back(std::move(on_durable));
    cache_.release_parity_slot();
    return;
  }
  SpoolEntry entry;
  entry.full_stripe = full_stripe;
  entry.covers = std::move(covers);
  if (on_durable) entry.on_durable.push_back(std::move(on_durable));
  spool_.emplace(parity_block, std::move(entry));
  stats_.parity_queue_peak = std::max(stats_.parity_queue_peak, spool_.size());
  pump_spooler();
}

void CachedController::pump_spooler() {
  if (spooling_ || spool_.empty() || crashed()) return;
  // SCAN: continue sweeping upward from the last serviced position,
  // wrapping at the end (parity block number increases with cylinder).
  auto it = spool_.lower_bound(scan_position_);
  if (it == spool_.end()) it = spool_.begin();
  const std::int64_t block = it->first;
  spooling_entry_ = std::move(it->second);
  spool_.erase(it);
  spooling_ = true;
  spooling_block_ = block;
  scan_position_ = block + 1;
  const bool full = spooling_entry_.full_stripe;

  const int parity_disk_index = layout_->total_disks() - 1;
  Disk& disk = *disks_[static_cast<std::size_t>(parity_disk_index)];
  DiskRequest req;
  req.start_block = block;
  req.block_count = 1;
  req.priority = DiskPriority::kNormal;
  if (full) {
    req.kind = DiskOpKind::kWrite;
    req.obs_phase = ObsPhase::kWriteParity;
  } else {
    // Delta entry: the old parity must be read, xored, and rewritten.
    req.kind = DiskOpKind::kReadModifyWrite;
    req.gate = WriteGate::already_open(eq_.op_arena());
    req.obs_phase = ObsPhase::kReadOldParity;
  }
  req.on_complete = [this, full](SimTime t) {
    SpoolEntry entry = std::move(spooling_entry_);
    spooling_ = false;
    spooling_block_ = -1;
    spooling_entry_ = SpoolEntry{};
    cache_.release_parity_slot();
    ++stats_.parity_spools;
    if (auditor_)
      for (const auto& c : entry.covers) auditor_->parity_durable(c, full);
    for (auto& cb : entry.on_durable) cb(t);
    pump_stalled();
    pump_spooler();
  };
  disk.submit(std::move(req));
}

}  // namespace raidsim
