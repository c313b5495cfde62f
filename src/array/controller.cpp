#include "array/controller.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/arena.hpp"

namespace raidsim {

OpRef<Barrier> Barrier::create(OpArena& arena, int count, Fire fire) {
  assert(count >= 0);
  return make_op<Barrier>(arena, Key{}, count, std::move(fire));
}

void Barrier::arrive(SimTime now) {
  assert(remaining_ > 0);
  if (--remaining_ == 0 && fire_) {
    auto fire = std::move(fire_);
    fire_ = nullptr;
    fire(now);
  }
}

namespace {

bool parity_has_priority(SyncPolicy policy) {
  return policy == SyncPolicy::kReadFirstPriority ||
         policy == SyncPolicy::kDiskFirstPriority;
}

bool is_disk_first(SyncPolicy policy) {
  return policy == SyncPolicy::kDiskFirst ||
         policy == SyncPolicy::kDiskFirstPriority;
}

bool is_read_first(SyncPolicy policy) {
  return policy == SyncPolicy::kReadFirst ||
         policy == SyncPolicy::kReadFirstPriority;
}

/// The reads ArrayController::read_groups issues for `groups`.
int group_reads(const std::vector<Layout::DegradedGroup>& groups) {
  int reads = 0;
  for (const auto& group : groups)
    reads += static_cast<int>(group.member_reads.size()) +
             (group.parity.valid() ? 1 : 0);
  return reads;
}

}  // namespace

ArrayController::ArrayController(EventQueue& eq, const Config& config)
    : eq_(eq),
      disk_geometry_(config.disk_geometry),
      seek_model_(SeekModel::calibrate(config.seek)),
      layout_(make_layout(config.layout)),
      sync_(config.sync),
      fault_(config.fault),
      tail_(config.tail),
      tracer_(config.tracer),
      array_index_(config.array_index) {
  if (fault_.retry_budget < 0 || fault_.retry_backoff_ms < 0.0)
    throw std::invalid_argument("ArrayController: negative fault policy");
  const int total = layout_->total_disks();
  disks_.reserve(static_cast<std::size_t>(total));
  for (int d = 0; d < total; ++d) {
    disks_.push_back(std::make_unique<Disk>(eq_, disk_geometry_, &seek_model_,
                                            d, config.disk_scheduling));
    disks_.back()->set_tracer(tracer_, array_index_);
  }
  channel_ = std::make_unique<Channel>(eq_, config.channel_mb_per_second);
  buffers_ =
      std::make_unique<BufferPool>(config.track_buffers_per_disk * total);
}

void ArrayController::fail_disk(int disk) {
  if (disk >= layout_->total_disks())
    throw std::invalid_argument("ArrayController: no such disk");
  failed_disk_ = disk < 0 ? -1 : disk;
  rebuild_watermark_ = 0;
}

void ArrayController::set_rebuild_watermark(std::int64_t blocks) {
  rebuild_watermark_ = blocks;
}

bool ArrayController::is_degraded(const PhysicalExtent& extent) const {
  return failed_disk_ >= 0 && extent.disk == failed_disk_ &&
         extent.start_block + extent.block_count > rebuild_watermark_;
}

int ArrayController::choose_mirror_read_disk(const PhysicalExtent& extent) {
  const int twin = layout_->mirror_of(extent.disk);
  if (twin < 0) return extent.disk;
  if (extent.disk == failed_disk_) return twin;
  if (twin == failed_disk_) return extent.disk;
  const int target =
      disk_geometry_.locate_block(extent.start_block).cylinder;
  const Disk& a = *disks_[static_cast<std::size_t>(extent.disk)];
  const Disk& b = *disks_[static_cast<std::size_t>(twin)];
  const int da = std::abs(a.current_cylinder() - target);
  const int db = std::abs(b.current_cylinder() - target);
  int chosen = extent.disk;
  if (da != db)
    chosen = da < db ? extent.disk : twin;
  else
    chosen = a.queue_length() <= b.queue_length() ? extent.disk : twin;
  // Redirect-on-slow: override the seek choice when the preferred
  // member's smoothed per-op latency dwarfs its twin's (Thomasian's
  // mirrored-array read redirection under fail-slow).
  if (tail_) {
    const int other = chosen == extent.disk ? twin : extent.disk;
    const double mine =
        disks_[static_cast<std::size_t>(chosen)]->ewma_latency_ms();
    const double theirs =
        disks_[static_cast<std::size_t>(other)]->ewma_latency_ms();
    if (mine > 0.0 && theirs > 0.0 && mine > kTailSlowFactor * theirs) {
      ++stats_.redirected_reads;
      obs_instant(tracer_, ObsPhase::kRedirected, array_index_, other,
                  eq_.now());
      chosen = other;
    }
  }
  return chosen;
}

void ArrayController::disk_read(const PhysicalExtent& extent,
                                DiskPriority priority,
                                Completion done, bool repair_read) {
  assert(extent.valid());
  if (is_degraded(extent)) {
    // Reconstruct the content from the surviving members of the parity
    // group(s) plus the parity (Mirror: the twin copy).
    const auto groups = layout_->degraded_group(extent);
    if (groups.empty()) {
      // No redundancy: the data are lost. Complete immediately (an error
      // return in a real system) and count it.
      ++stats_.unrecoverable;
      if (done) done(eq_.now());
      return;
    }
    ++stats_.degraded_reads;
    read_groups(groups, priority, std::move(done), repair_read);
    return;
  }
  submit_op(extent, /*is_write=*/false, priority, std::move(done), 0,
            nullptr, ObsPhase::kAuto, repair_read);
}

void ArrayController::read_groups(
    const std::vector<Layout::DegradedGroup>& groups, DiskPriority priority,
    Barrier::Fire done, bool repair_read) {
  auto barrier =
      Barrier::create(eq_.op_arena(), group_reads(groups), std::move(done));
  for (const auto& group : groups) {
    for (const auto& member : group.member_reads)
      disk_read(member, priority,
                [barrier](SimTime t) { barrier->arrive(t); }, repair_read);
    if (group.parity.valid())
      disk_read(group.parity, priority,
                [barrier](SimTime t) { barrier->arrive(t); }, repair_read);
  }
}

bool ArrayController::alternate_read_available(
    const PhysicalExtent& extent) const {
  const int twin = layout_->mirror_of(extent.disk);
  if (twin >= 0) return twin != failed_disk_;
  // Parity organizations reconstruct around the slow disk only when no
  // member of the group is already failed (a reconstruction on top of a
  // failure would double-degrade the group).
  return failed_disk_ < 0;
}

bool ArrayController::ewma_slow(int disk) const {
  if (disk < 0 || static_cast<std::size_t>(disk) >= disks_.size())
    return false;
  constexpr std::uint64_t kMinOps = 16;
  const Disk& suspect = *disks_[static_cast<std::size_t>(disk)];
  if (suspect.op_latency().count() < kMinOps) return false;
  std::vector<double> warm;
  warm.reserve(disks_.size());
  for (std::size_t d = 0; d < disks_.size(); ++d) {
    if (static_cast<int>(d) == failed_disk_) continue;
    const Disk& member = *disks_[d];
    if (member.op_latency().count() < kMinOps) continue;
    warm.push_back(member.ewma_latency_ms());
  }
  if (warm.size() < 2) return false;
  std::nth_element(warm.begin(), warm.begin() + warm.size() / 2, warm.end());
  const double median = warm[warm.size() / 2];
  return median > 0.0 &&
         suspect.ewma_latency_ms() > kTailSlowFactor * median;
}

bool ArrayController::issue_alternate_read(const PhysicalExtent& extent,
                                           DiskPriority priority,
                                           Completion& done) {
  if (!alternate_read_available(extent)) return false;
  const auto groups = layout_->degraded_group(extent);
  if (group_reads(groups) == 0) return false;
  read_groups(groups, priority, std::move(done));
  return true;
}

namespace {

/// First-completion-wins state shared by the legs of a hedged read.
struct HedgeState {
  bool finished = false;  // a leg already delivered the data
  bool hedged = false;    // the speculative leg has been issued
  Completion done;
};

}  // namespace

void ArrayController::tail_read(const PhysicalExtent& extent,
                                DiskPriority priority,
                                Completion done) {
  if (!tail_ || crashed_ || is_degraded(extent) ||
      !alternate_read_available(extent)) {
    disk_read(extent, priority, std::move(done));
    return;
  }
  // Parity organizations pay N-1 member reads plus the parity read per
  // hedge, and those member reads land on every OTHER disk -- including
  // a straggler elsewhere in the group. Reconstructing around a disk
  // that is merely queued (not slow) floods the array, so the hedge
  // machinery only arms when the primary is EWMA-slow relative to its
  // siblings. A mirror hedge is one disk read; it stays unconditional.
  if (layout_->mirror_of(extent.disk) < 0 && !ewma_slow(extent.disk)) {
    disk_read(extent, priority, std::move(done));
    return;
  }

  auto state = make_op<HedgeState>(eq_.op_arena());
  state->done = std::move(done);

  auto issue_hedge = [this, extent, priority, state](SimTime) {
    if (state->finished || state->hedged || crashed_) return;
    auto hedge_done = [this, state](SimTime t) {
      if (state->finished) {
        // The primary already answered the host: the speculative leg's
        // disk time was pure waste. Count it.
        ++stats_.hedge_cancellations;
        return;
      }
      state->finished = true;
      ++stats_.hedge_wins;
      obs_instant(tracer_, ObsPhase::kHedgeWon, array_index_, -1, t);
      if (state->done) {
        auto d = std::move(state->done);
        d(t);
      }
    };
    Completion hedge_completion = std::move(hedge_done);
    if (issue_alternate_read(extent, priority, hedge_completion)) {
      state->hedged = true;
      ++stats_.hedged_reads;
      obs_instant(tracer_, ObsPhase::kHedgeIssued, array_index_, extent.disk,
                  eq_.now());
    }
  };

  const double ewma =
      disks_[static_cast<std::size_t>(extent.disk)]->ewma_latency_ms();
  eq_.schedule_in(kTailHedgeEwmaFactor * ewma,
                  [issue_hedge, this] { issue_hedge(eq_.now()); });
  eq_.schedule_in(kTailDeadlineMs, [this, state, issue_hedge] {
    if (state->finished) return;
    ++stats_.timeouts_fired;
    obs_instant(tracer_, ObsPhase::kTimeoutFired, array_index_, -1,
                eq_.now());
    // Escalation: the retry that makes sense against a fail-slow disk
    // is the redundant copy, issued NOW if the hedge timer has not.
    issue_hedge(eq_.now());
  });

  disk_read(extent, priority, [this, state](SimTime t) {
    if (state->finished) {
      // The hedge delivered first; the primary's late completion is the
      // cancelled leg (this disk model cannot abort an op mid-service,
      // so cancellation is accounting, exactly like a real drive that
      // ignores aborts until the command completes).
      ++stats_.hedge_cancellations;
      return;
    }
    state->finished = true;
    if (state->done) {
      auto d = std::move(state->done);
      d(t);
    }
  });
}

void ArrayController::disk_write(const PhysicalExtent& extent,
                                 DiskPriority priority,
                                 Completion done,
                                 PowerFail on_power_fail,
                                 ObsPhase phase) {
  assert(extent.valid());
  submit_op(extent, /*is_write=*/true, priority, std::move(done), 0,
            std::move(on_power_fail), phase);
}

void ArrayController::submit_op(const PhysicalExtent& extent, bool is_write,
                                DiskPriority priority,
                                Completion done,
                                int attempt,
                                PowerFail on_power_fail,
                                ObsPhase phase,
                                bool repair_read) {
  // A crashed controller issues nothing; the host request this op served
  // died with the crash (its completion simply never fires).
  if (crashed_) return;
  // Retries re-enter here after a backoff, during which the target disk
  // may have been declared dead: reads fall back to reconstruction,
  // writes to the dead region are absorbed (the rebuild regenerates
  // their content from the surviving members).
  if (is_degraded(extent)) {
    if (is_write) {
      if (done) done(eq_.now());
      return;
    }
    disk_read(extent, priority, std::move(done), repair_read);
    return;
  }
  Disk& disk = *disks_[static_cast<std::size_t>(extent.disk)];
  // The completion and power-fail continuations are needed by both the
  // success callback and the fault path, and a retry resubmits the same
  // access, so continuations and retry state live once in the engine's
  // op arena; the disk's callbacks carry only this handle.
  struct FaultCtx {
    PhysicalExtent extent;
    bool is_write = false;
    DiskPriority priority = DiskPriority::kNormal;
    int attempt = 0;
    ObsPhase phase = ObsPhase::kAuto;
    bool repair_read = false;
    Completion done;
    PowerFail on_power_fail;
  };
  auto ctx = make_op<FaultCtx>(eq_.op_arena());
  ctx->extent = extent;
  ctx->is_write = is_write;
  ctx->priority = priority;
  ctx->attempt = attempt;
  ctx->phase = phase;
  ctx->repair_read = repair_read;
  ctx->done = std::move(done);
  ctx->on_power_fail = std::move(on_power_fail);
  DiskRequest req;
  req.kind = is_write ? DiskOpKind::kWrite : DiskOpKind::kRead;
  req.start_block = extent.start_block;
  req.block_count = extent.block_count;
  req.priority = priority;
  req.obs_phase = phase;
  req.on_complete = [ctx](SimTime t) {
    if (ctx->done) ctx->done(t);
  };
  if (ctx->on_power_fail) {
    req.on_power_fail = [ctx](SimTime t, int durable) {
      ctx->on_power_fail(t, durable);
    };
  }
  req.on_error = [this, ctx](SimTime t, DiskError error) {
    FaultCtx& c = *ctx;
    if (error == DiskError::kMedia && !c.is_write) {
      ++stats_.media_errors;
      if (c.repair_read && shares_group_with_media_error(c.extent)) {
        // A reconstruction read hit a second latent error in a group
        // that holds another: a double fault. The block cannot be
        // reconstructed, so it is remapped with its content lost and the
        // repair completes, instead of starting a repair that would read
        // the first bad block again, and so on forever.
        ++stats_.media_losses;
        ++stats_.unrecoverable;
        disks_[static_cast<std::size_t>(c.extent.disk)]->clear_media_errors(
            c.extent.start_block, c.extent.block_count);
        if (c.done) c.done(t);
        return;
      }
      // The data are reconstructed from the group and rewritten in
      // place (sector remap); the reconstruction also serves the read.
      repair_media_error(c.extent, c.priority, std::move(c.done));
      return;
    }
    if (error == DiskError::kTransient && c.attempt < fault_.retry_budget) {
      ++stats_.transient_retries;
      const double backoff =
          fault_.retry_backoff_ms * static_cast<double>(1 << c.attempt);
      ++retries_pending_;
      eq_.schedule_in(backoff, [this, ctx] {
        --retries_pending_;
        FaultCtx& c = *ctx;
        submit_op(c.extent, c.is_write, c.priority, std::move(c.done),
                  c.attempt + 1, std::move(c.on_power_fail), c.phase,
                  c.repair_read);
      });
      return;
    }
    handle_retry_exhaustion(c.extent, c.is_write, c.priority,
                            std::move(c.done), t);
  };
  disk.submit(std::move(req));
}

void ArrayController::handle_retry_exhaustion(const PhysicalExtent& extent,
                                              bool is_write,
                                              DiskPriority priority,
                                              Completion done,
                                              SimTime now) {
  ++stats_.retry_exhaustions;
  if (disk_dead_handler_) {
    // The handler (HealthMonitor) owns the failure bookkeeping: it
    // marks the disk failed, allocates a spare, and detects data loss.
    disk_dead_handler_(extent.disk, now);
  } else if (failed_disk_ < 0) {
    fail_disk(extent.disk);
  }
  if (failed_disk_ == extent.disk) {
    // The disk is now formally failed: serve the op in degraded mode.
    if (is_write) {
      if (done) done(eq_.now());
    } else {
      disk_read(extent, priority, std::move(done));
    }
    return;
  }
  // A second concurrent failure the single-failure controller cannot
  // degrade around: the access is lost (the HealthMonitor records the
  // data-loss event; the op still completes so the host is released).
  ++stats_.unrecoverable;
  if (done) done(eq_.now());
}

void ArrayController::repair_media_error(const PhysicalExtent& extent,
                                         DiskPriority priority,
                                         Completion done) {
  const auto groups = layout_->degraded_group(extent);
  Disk& disk = *disks_[static_cast<std::size_t>(extent.disk)];
  if (groups.empty()) {
    // No redundancy: the sectors are remapped but their content is gone.
    ++stats_.media_losses;
    ++stats_.unrecoverable;
    disk.clear_media_errors(extent.start_block, extent.block_count);
    if (done) done(eq_.now());
    return;
  }
  auto rewrite = [this, extent, priority,
                  done = std::move(done)](SimTime) mutable {
    disk_write(extent, priority,
               [this, done = std::move(done)](SimTime t) {
                 ++stats_.media_repairs;
                 if (done) done(t);
               });
  };
  read_groups(groups, priority, std::move(rewrite), /*repair_read=*/true);
}

bool ArrayController::shares_group_with_media_error(
    const PhysicalExtent& extent) const {
  const Disk& disk = *disks_[static_cast<std::size_t>(extent.disk)];
  const auto bad = [this](const PhysicalExtent& e) {
    return e.valid() && disks_[static_cast<std::size_t>(e.disk)]
                            ->has_media_error(e.start_block, e.block_count);
  };
  for (int i = 0; i < extent.block_count; ++i) {
    const PhysicalExtent block{extent.disk, extent.start_block + i, 1};
    if (!disk.has_media_error(block.start_block, 1)) continue;
    for (const auto& group : layout_->degraded_group(block)) {
      if (bad(group.parity)) return true;
      for (const auto& member : group.member_reads)
        if (bad(member)) return true;
    }
  }
  return false;
}

bool ArrayController::holds_work() const {
  if (retries_pending_ > 0 || channel_->busy()) return true;
  for (const auto& disk : disks_)
    if (disk->busy() || disk->queue_length() > 0) return true;
  return false;
}

void ArrayController::crash_halt(bool preserve_nvram) {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  // Every disk loses power at the same instant: queues discarded,
  // in-flight transfers keep only their durable prefix.
  for (auto& disk : disks_) {
    const auto report = disk->power_fail();
    stats_.crash_dropped_ops += report.queued_ops + report.inflight_ops;
    stats_.crash_discarded_write_blocks += report.write_blocks_lost;
  }
  if (journal_) journal_->power_loss(preserve_nvram);
}

void ArrayController::crash_restart() {
  if (!crashed_) return;
  crashed_ = false;
  for (auto& disk : disks_) disk->power_on();
}

void ArrayController::note_recovery(double ms, std::uint64_t intents_replayed,
                                    bool full) {
  stats_.recovery_ms += ms;
  stats_.journal_replays += intents_replayed;
  if (full) ++stats_.full_resyncs;
}

ArrayController::ResyncIssue ArrayController::resync_stripe(
    const PhysicalExtent& extent, DiskPriority priority,
    Completion done) {
  ResyncIssue issue;
  const auto groups = layout_->degraded_group(extent);
  if (groups.empty()) {
    if (done) done(eq_.now());
    return issue;
  }
  issue.ok = true;

  const std::uint64_t span =
      obs_begin(tracer_, ObsPhase::kRecovery, array_index_, -1, eq_.now());
  auto finish = [this, extent, span,
                 done = std::move(done)](SimTime t) mutable {
    if (auditor_ && extent.logical_start >= 0)
      for (int i = 0; i < extent.block_count; ++i)
        auditor_->resync_block(extent.logical_start + i);
    obs_end(tracer_, span, ObsPhase::kRecovery, array_index_, -1, t);
    if (done) done(t);
  };

  int parity_extents = 0;
  for (const auto& g : groups)
    if (g.parity.valid()) ++parity_extents;
  if (parity_extents == 0) {
    // No parity here (Mirror/Base): nothing to resynchronize.
    finish(eq_.now());
    return issue;
  }

  // Read the extent itself plus every other member of its group(s), then
  // recompute the parity from the full content and rewrite it.
  int reads = 1;
  issue.read_blocks = extent.block_count;
  for (const auto& g : groups) {
    for (const auto& m : g.member_reads) {
      ++reads;
      issue.read_blocks += m.block_count;
    }
    if (g.parity.valid()) issue.write_blocks += g.parity.block_count;
  }
  ++stats_.resync_stripes;
  stats_.resync_read_blocks += static_cast<std::uint64_t>(issue.read_blocks);
  stats_.resync_write_blocks += static_cast<std::uint64_t>(issue.write_blocks);

  auto write_parities = [this, groups, priority, parity_extents,
                         finish = std::move(finish)](SimTime) mutable {
    auto parity_barrier = Barrier::create(eq_.op_arena(), parity_extents, std::move(finish));
    for (const auto& g : groups)
      if (g.parity.valid())
        disk_write(
            g.parity, priority,
            [parity_barrier](SimTime t) { parity_barrier->arrive(t); },
            nullptr, ObsPhase::kWriteParity);
  };
  auto read_barrier = Barrier::create(eq_.op_arena(), reads, std::move(write_parities));
  disk_read(extent, priority,
            [read_barrier](SimTime t) { read_barrier->arrive(t); });
  for (const auto& g : groups)
    for (const auto& m : g.member_reads)
      disk_read(m, priority,
                [read_barrier](SimTime t) { read_barrier->arrive(t); });
  return issue;
}

ArrayController::AuditTap ArrayController::audit_data_write(
    const PhysicalExtent& extent, Completion inner) {
  AuditTap tap;
  if (auditor_ == nullptr || extent.logical_start < 0) {
    tap.on_complete = std::move(inner);
    return tap;
  }
  std::vector<std::uint64_t> gens(
      static_cast<std::size_t>(extent.block_count));
  for (int i = 0; i < extent.block_count; ++i)
    gens[static_cast<std::size_t>(i)] =
        auditor_->current_gen(extent.logical_start + i);
  WriteAuditHooks* auditor = auditor_;
  const std::int64_t logical = extent.logical_start;
  tap.on_complete = [auditor, logical, gens,
                     inner = std::move(inner)](SimTime t) {
    for (std::size_t i = 0; i < gens.size(); ++i)
      auditor->data_durable(logical + static_cast<std::int64_t>(i), gens[i]);
    if (inner) inner(t);
  };
  tap.on_power_fail = [auditor, logical, gens](SimTime, int durable) {
    for (int i = 0; i < durable; ++i)
      auditor->data_durable(logical + i, gens[static_cast<std::size_t>(i)]);
  };
  return tap;
}

std::vector<ParityCover> ArrayController::parity_covers(
    const DataPieces& pieces) const {
  std::vector<ParityCover> covers;
  if (auditor_ == nullptr) return covers;
  for (std::size_t i = 0; i < pieces.extents.size(); ++i) {
    const auto& piece = pieces.extents[i];
    if (piece.logical_start < 0) continue;
    for (int b = 0; b < piece.block_count; ++b) {
      ParityCover c;
      c.block = piece.logical_start + b;
      c.gen = auditor_->current_gen(c.block);
      c.assumed_old_gen = pieces.old_cached[i]
                              ? auditor_->old_copy_gen(c.block)
                              : auditor_->disk_gen(c.block);
      covers.push_back(c);
    }
  }
  return covers;
}

ArrayController::DataPieces ArrayController::data_pieces(
    const ExtentList& writes, bool old_data_known) const {
  DataPieces pieces;
  for (const auto& w : writes)
    for (const auto& piece : split_at_cylinders(w)) {
      pieces.extents.push_back(piece);
      const bool cached = old_data_known && old_data_cached(piece);
      pieces.old_cached.push_back(cached ? 1 : 0);
      if (!cached) ++pieces.reads;
    }
  return pieces;
}

void ArrayController::issue_rmw_data(const DataPieces& pieces,
                                     const OpRef<Barrier>& read_barrier,
                                     const OpRef<Barrier>& start_barrier,
                                     const OpRef<Barrier>& completion) {
  for (std::size_t i = 0; i < pieces.extents.size(); ++i) {
    const auto& piece = pieces.extents[i];
    Disk& disk = *disks_[static_cast<std::size_t>(piece.disk)];
    DiskRequest req;
    req.start_block = piece.start_block;
    req.block_count = piece.block_count;
    req.priority = DiskPriority::kNormal;
    if (pieces.old_cached[i]) {
      // Old content already buffered: plain in-place write.
      req.kind = DiskOpKind::kWrite;
    } else {
      // Read the old data, rewrite a revolution later. The write phase
      // needs nothing beyond the new data, which the controller already
      // has, so its own gate is pre-opened.
      req.kind = DiskOpKind::kReadModifyWrite;
      req.gate = WriteGate::already_open(eq_.op_arena());
      req.on_read_done = [read_barrier](SimTime t) {
        read_barrier->arrive(t);
      };
    }
    if (start_barrier)
      req.on_start = [start_barrier](SimTime t) { start_barrier->arrive(t); };
    auto tap = audit_data_write(
        piece, [completion](SimTime t) { completion->arrive(t); });
    req.on_complete = std::move(tap.on_complete);
    req.on_power_fail = std::move(tap.on_power_fail);
    disk.submit(std::move(req));
  }
}

OpRef<Barrier> ArrayController::open_intent(const StripeUpdate& update,
                                            int arrivals) {
  if (!journal_ || crashed_ || !update.parity.valid() || update.writes.empty())
    return nullptr;
  // An intent still open at a crash marks its stripe for recovery resync.
  const std::uint64_t id = journal_->open(update, eq_.now());
  ++stats_.journal_intents;
  return Barrier::create(eq_.op_arena(), arrivals, [this, id](SimTime t) {
    if (journal_) journal_->close(id, t);
  });
}

ExtentList ArrayController::split_at_cylinders(
    const PhysicalExtent& extent) const {
  const int bpc = disk_geometry_.blocks_per_cylinder();
  ExtentList out;
  std::int64_t pos = extent.start_block;
  std::int64_t logical = extent.logical_start;
  int remaining = extent.block_count;
  while (remaining > 0) {
    const std::int64_t within = pos % bpc;
    const int take = static_cast<int>(
        std::min<std::int64_t>(remaining, bpc - within));
    out.push_back(PhysicalExtent{extent.disk, pos, take, logical});
    pos += take;
    if (logical >= 0) logical += take;
    remaining -= take;
  }
  return out;
}

bool ArrayController::rebuild_extent(const PhysicalExtent& extent,
                                     DiskPriority priority,
                                     Completion done) {
  const auto groups = layout_->degraded_group(extent);
  if (groups.empty()) return false;
  const std::uint64_t span =
      obs_begin(tracer_, ObsPhase::kRebuild, array_index_, -1, eq_.now());
  if (span) {
    done = [this, span, done = std::move(done)](SimTime t) {
      obs_end(tracer_, span, ObsPhase::kRebuild, array_index_, -1, t);
      if (done) done(t);
    };
  }
  // Read the surviving members, then write the reconstructed content to
  // the replacement disk (which occupies the failed slot).
  auto write_back = [this, extent, priority,
                     done = std::move(done)](SimTime) mutable {
    Disk& replacement = *disks_[static_cast<std::size_t>(extent.disk)];
    DiskRequest req;
    req.kind = DiskOpKind::kWrite;
    req.start_block = extent.start_block;
    req.block_count = extent.block_count;
    req.priority = priority;
    req.obs_phase = ObsPhase::kMirrorCopy;
    req.on_complete = std::move(done);
    replacement.submit(std::move(req));
  };
  read_groups(groups, priority, std::move(write_back));
  return true;
}

StripeUpdate ArrayController::degrade_update(const StripeUpdate& update) {
  StripeUpdate out = update;
  // A failed parity disk simply stops being maintained: the remaining
  // data writes become plain writes.
  if (out.parity.valid() && is_degraded(out.parity)) {
    out.parity = PhysicalExtent{};
    out.reconstruct_reads.clear();
    out.reconstruct = true;
    out.full_stripe = true;
  }
  // Writes to the failed disk are dropped; the parity absorbs the new
  // data instead: reconstruct-style update reading the surviving group
  // members. (With multiple extents per plan this reads the failed
  // extent's offsets only -- exact for the single-block writes that
  // dominate OLTP.)
  ExtentList surviving;
  ExtentList dropped;
  for (const auto& w : out.writes)
    (is_degraded(w) ? dropped : surviving).push_back(w);
  if (!dropped.empty()) {
    ++stats_.degraded_writes;
    out.writes = std::move(surviving);
    if (out.parity.valid()) {
      out.reconstruct = true;
      out.full_stripe = false;
      out.reconstruct_reads.clear();
      for (const auto& w : dropped) {
        for (const auto& group : layout_->degraded_group(w)) {
          for (const auto& member : group.member_reads) {
            // Members being rewritten in this plan need no old-data read.
            bool written = false;
            for (const auto& sw : out.writes)
              written = written || (sw.disk == member.disk &&
                                    sw.start_block <= member.start_block &&
                                    member.start_block + member.block_count <=
                                        sw.start_block + sw.block_count);
            if (!written) out.reconstruct_reads.push_back(member);
          }
        }
      }
      if (out.reconstruct_reads.empty()) out.full_stripe = true;
    } else if (out.writes.empty()) {
      // Base organization (or double failure): nothing survives.
      ++stats_.unrecoverable;
    }
  }
  return out;
}

void ArrayController::execute_update(const StripeUpdate& update,
                                     Completion done) {
  // The intent retires only when the whole plan (data AND parity) has
  // landed.
  if (auto intent = open_intent(update, 1)) {
    done = [intent, done = std::move(done)](SimTime t) {
      intent->arrive(t);
      if (done) done(t);
    };
  }
  if (failed_disk_ >= 0) {
    const StripeUpdate degraded = degrade_update(update);
    if (degraded.writes.empty() && !degraded.parity.valid()) {
      // Nothing survives (Base organization): the write is lost.
      if (done) done(eq_.now());
      return;
    }
    execute_update_impl(degraded, std::move(done));
    return;
  }
  execute_update_impl(update, std::move(done));
}

void ArrayController::execute_update_impl(const StripeUpdate& update,
                                          Completion done) {
  const DiskPriority parity_priority = parity_has_priority(sync_)
                                           ? DiskPriority::kParity
                                           : DiskPriority::kNormal;

  // ---- Plain-write plans: full stripes, Base/Mirror, reconstruct mode.
  if (update.reconstruct || update.full_stripe) {
    const int op_count = static_cast<int>(update.writes.size()) +
                         (update.parity.valid() ? 1 : 0);
    auto completion = Barrier::create(eq_.op_arena(), op_count, std::move(done));
    for (const auto& w : update.writes) {
      auto tap = audit_data_write(
          w, [completion](SimTime t) { completion->arrive(t); });
      disk_write(w, DiskPriority::kNormal, std::move(tap.on_complete),
                 std::move(tap.on_power_fail));
    }
    if (update.parity.valid()) {
      // The parity is recomputed from full content here, so its coverage
      // advances unconditionally (no stale-delta poisoning). Without an
      // auditor the pieces are not even split.
      std::vector<ParityCover> covers;
      if (auditor_)
        covers = parity_covers(
            data_pieces(update.writes, /*old_data_known=*/false));
      auto parity_done = [this, covers = std::move(covers),
                          completion](SimTime t) {
        if (auditor_)
          for (const auto& c : covers) auditor_->parity_durable(c, true);
        completion->arrive(t);
      };
      if (update.reconstruct_reads.empty()) {
        // Full stripe: the parity is computed from the new data and
        // written without any reads.
        disk_write(update.parity, parity_priority, std::move(parity_done),
                   nullptr, ObsPhase::kWriteParity);
      } else {
        // Reconstruct: the parity write waits for the reads of the
        // untouched data.
        const PhysicalExtent parity = update.parity;
        auto read_barrier = Barrier::create(eq_.op_arena(),
            static_cast<int>(update.reconstruct_reads.size()),
            [this, parity, parity_priority,
             parity_done = std::move(parity_done)](SimTime) mutable {
              disk_write(parity, parity_priority, std::move(parity_done),
                         nullptr, ObsPhase::kWriteParity);
            });
        for (const auto& r : update.reconstruct_reads)
          disk_read(r, DiskPriority::kNormal,
                    [read_barrier](SimTime t) { read_barrier->arrive(t); });
      }
    }
    return;
  }

  // ---- Read-modify-write plan (small writes).
  assert(update.parity.valid());

  const DataPieces data = data_pieces(update.writes, /*old_data_known=*/true);
  // The parity pieces outlive this frame inside issue_parity (and are
  // shared by up to two barriers), so they live in the op arena and the
  // lambdas carry an 8-byte handle.
  auto parity_pieces =
      make_op<ExtentList>(eq_.op_arena(), split_at_cylinders(update.parity));

  const int total_ops =
      static_cast<int>(data.extents.size() + parity_pieces->size());
  auto completion = Barrier::create(eq_.op_arena(), total_ops, std::move(done));

  // The gate opens when the new parity is computable: every data piece
  // whose old content is not already in the controller must finish its
  // old-data read first.
  auto gate = make_op<WriteGate>(eq_.op_arena());

  // Audit bookkeeping: the parity advances by an XOR delta computed
  // against each block's old content. The covers are marked only when
  // every parity piece has landed.
  auto covers = parity_covers(data);
  auto parity_remaining =
      make_op<int>(eq_.op_arena(), static_cast<int>(parity_pieces->size()));

  // Issuing the parity access(es): immediately for SI; when all old data
  // have been read for RF; when all data accesses have acquired their
  // disks for DF.
  auto issue_parity = [this, parity_pieces, parity_priority, gate,
                       completion, covers, parity_remaining](SimTime) {
    for (const auto& piece : *parity_pieces) {
      Disk& disk = *disks_[static_cast<std::size_t>(piece.disk)];
      DiskRequest req;
      req.kind = DiskOpKind::kReadModifyWrite;
      req.start_block = piece.start_block;
      req.block_count = piece.block_count;
      req.priority = parity_priority;
      req.obs_phase = ObsPhase::kReadOldParity;
      req.gate = gate;
      req.on_complete = [this, completion, covers,
                         parity_remaining](SimTime t) {
        if (--*parity_remaining == 0 && auditor_)
          for (const auto& c : covers) auditor_->parity_durable(c, false);
        completion->arrive(t);
      };
      disk.submit(std::move(req));
    }
  };

  const bool read_first = is_read_first(sync_);
  auto read_barrier = Barrier::create(eq_.op_arena(),
      data.reads, [gate, read_first, issue_parity](SimTime t) {
        gate->open(t);
        if (read_first) issue_parity(t);
      });
  if (data.reads == 0) {
    // No reads to wait for (all old data cached): open now and, for RF,
    // issue immediately.
    gate->open(eq_.now());
    if (read_first) issue_parity(eq_.now());
  }

  OpRef<Barrier> start_barrier;
  if (is_disk_first(sync_)) {
    start_barrier = Barrier::create(
        eq_.op_arena(), static_cast<int>(data.extents.size()), issue_parity);
  }

  issue_rmw_data(data, read_barrier, start_barrier, completion);

  if (sync_ == SyncPolicy::kSimultaneousIssue) issue_parity(eq_.now());
}

}  // namespace raidsim
