#include "disk/disk.hpp"

#include <cassert>
#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace raidsim {

OpRef<WriteGate> WriteGate::already_open(OpArena& arena) {
  auto gate = make_op<WriteGate>(arena);
  gate->open_ = true;
  gate->ready_time_ = 0.0;
  return gate;
}

void WriteGate::open(SimTime now) {
  if (open_) return;
  open_ = true;
  ready_time_ = now;
  if (waiter_) {
    auto waiter = std::move(waiter_);
    waiter_ = nullptr;
    waiter(now);
  }
}

std::string to_string(DiskError error) {
  switch (error) {
    case DiskError::kNone: return "none";
    case DiskError::kTransient: return "transient";
    case DiskError::kMedia: return "media";
  }
  return "?";
}

Disk::Disk(EventQueue& eq, const DiskGeometry& geometry, const SeekModel* seek,
           int id, DiskScheduling scheduling)
    : eq_(eq), geometry_(geometry), seek_(seek), id_(id),
      scheduling_(scheduling) {
  if (!geometry_.valid()) throw std::invalid_argument("Disk: bad geometry");
  if (seek_ == nullptr) throw std::invalid_argument("Disk: null seek model");
}

void Disk::submit(DiskRequest&& req) {
  assert(req.start_block >= 0 && req.block_count > 0);
  assert(req.start_block + req.block_count <= geometry_.total_blocks());
  if (powered_off_) {
    // Stray submission against a dead disk (e.g. a retry backoff that
    // fired after the crash): refused, nothing reaches the medium.
    ++stats_.power_fail_drops;
    if (req.on_power_fail) req.on_power_fail(eq_.now(), 0);
    return;
  }
  OpRef<Pending> p =
      make_op<Pending>(eq_.op_arena(), std::move(req), eq_.now(), next_seq_++);
  if constexpr (kTracingCompiledIn) {
    if (tracer_) {
      p->obs_phase = p->req.obs_phase != ObsPhase::kAuto ? p->req.obs_phase
                     : p->req.kind == DiskOpKind::kRead  ? ObsPhase::kReadData
                     : p->req.kind == DiskOpKind::kWrite ? ObsPhase::kWriteData
                                                         : ObsPhase::kReadOldData;
      p->obs_id = tracer_->begin(ObsPhase::kDiskQueue, obs_array_, id_,
                                 p->enqueue_time);
    }
  }
  QueueKey key{p->seq, 0, p->req.priority};
  if (scheduling_ != DiskScheduling::kFifo)
    key.cylinder = geometry_.locate_block(p->req.start_block).cylinder;
  queue_.push_back(std::move(p));
  qkeys_.push_back(key);
  if (!busy_) start_next();
}

OpRef<Disk::Pending> Disk::pop_next() {
  assert(!qkeys_.empty() && qkeys_.size() == queue_.size());
  const std::size_t n = qkeys_.size();
  // Highest priority class present wins regardless of scheduling policy.
  DiskPriority best_priority = DiskPriority::kDestage;
  for (const QueueKey& k : qkeys_)
    best_priority = std::max(best_priority, k.priority);

  // Within the class, ties are broken by arrival (seq): with swap-remove
  // the vectors are no longer arrival-ordered, so the tie-break that the
  // old first-hit-wins scan got for free is explicit here.
  std::size_t chosen = n;
  switch (scheduling_) {
    case DiskScheduling::kFifo: {
      std::uint64_t best_seq = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (qkeys_[i].priority != best_priority) continue;
        if (chosen == n || qkeys_[i].seq < best_seq) {
          chosen = i;
          best_seq = qkeys_[i].seq;
        }
      }
      break;
    }
    case DiskScheduling::kSstf: {
      int best_dist = 0;
      std::uint64_t best_seq = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (qkeys_[i].priority != best_priority) continue;
        const int dist = std::abs(qkeys_[i].cylinder - head_cylinder_);
        if (chosen == n || dist < best_dist ||
            (dist == best_dist && qkeys_[i].seq < best_seq)) {
          chosen = i;
          best_dist = dist;
          best_seq = qkeys_[i].seq;
        }
      }
      break;
    }
    case DiskScheduling::kScan: {
      // Elevator: nearest request at or beyond the head in the sweep
      // direction; reverse when none remains.
      for (int attempt = 0; attempt < 2 && chosen == n; ++attempt) {
        int best_dist = 0;
        std::uint64_t best_seq = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (qkeys_[i].priority != best_priority) continue;
          const int delta = qkeys_[i].cylinder - head_cylinder_;
          if (scan_upward_ ? delta < 0 : delta > 0) continue;
          const int dist = std::abs(delta);
          if (chosen == n || dist < best_dist ||
              (dist == best_dist && qkeys_[i].seq < best_seq)) {
            chosen = i;
            best_dist = dist;
            best_seq = qkeys_[i].seq;
          }
        }
        if (chosen == n) scan_upward_ = !scan_upward_;
      }
      break;
    }
  }
  assert(chosen < n);
  OpRef<Pending> p = std::move(queue_[chosen]);
  queue_[chosen] = std::move(queue_.back());
  queue_.pop_back();
  qkeys_[chosen] = qkeys_.back();
  qkeys_.pop_back();
  return p;
}

double Disk::rotational_latency(SimTime t, int sector) const {
  const double rot = geometry_.rotation_ms();
  const double target = static_cast<double>(sector) * geometry_.sector_time_ms();
  double angle = rotation_phase(t, rot);
  double lat = target - angle;
  if (lat < 0.0) lat += rot;
  return lat;
}

Disk::TransferPlan Disk::plan_transfer(SimTime t, int head_cyl,
                                       std::int64_t start_sector,
                                       int sector_count) const {
  TransferPlan plan;
  const int spc = geometry_.sectors_per_cylinder();
  const double sector_ms = geometry_.sector_time_ms();

  std::int64_t pos = start_sector;
  int remaining = sector_count;
  bool first = true;
  while (remaining > 0) {
    const int cyl = geometry_.cylinder_of_sector(pos);
    const int dist = std::abs(cyl - head_cyl);
    const double seek = seek_->seek_time(dist);
    t += seek;
    plan.seek_ms += seek;
    head_cyl = cyl;

    const int within = static_cast<int>(pos % spc);
    const int sector_in_track = within % geometry_.sectors_per_track;
    const double lat = rotational_latency(t, sector_in_track);
    t += lat;
    plan.latency_ms += lat;
    if (first) {
      plan.transfer_start = t;
      first = false;
    }

    const int chunk = std::min(remaining, spc - within);
    const double xfer = static_cast<double>(chunk) * sector_ms;
    t += xfer;
    plan.transfer_ms += xfer;
    pos += chunk;
    remaining -= chunk;
  }
  plan.end_time = t;
  plan.end_cylinder = head_cyl;
  return plan;
}

void Disk::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  begin_service(pop_next());
}

void Disk::begin_service(OpRef<Pending> p) {
  const SimTime start = eq_.now();
  stats_.queue_ms += start - p->enqueue_time;
  obs_end(tracer_, p->obs_id, ObsPhase::kDiskQueue, obs_array_, id_, start);
  obs_begin_with(tracer_, p->obs_id, p->obs_phase, obs_array_, id_, start);
  if (p->req.on_start) p->req.on_start(start);

  const std::int64_t start_sector =
      p->req.start_block * geometry_.block_sectors;
  const int sector_count = p->req.block_count * geometry_.block_sectors;
  const TransferPlan plan =
      plan_transfer(start, head_cylinder_, start_sector, sector_count);
  stats_.seek_ms += plan.seek_ms;
  stats_.latency_ms += plan.latency_ms;

  // Fail-slow injection: extra service milliseconds appended after the
  // mechanical plan (media retries re-reading a marginal sector hold the
  // spindle past the nominal transfer end). Zero when no hook installed,
  // so injection-off runs are bit-identical to a build without the hook.
  double extra_ms = 0.0;
  if (slowdown_hook_) {
    extra_ms = slowdown_hook_(p->req, start, plan.end_time - start);
    if (extra_ms > 0.0) {
      ++stats_.slow_ops;
      stats_.slowdown_ms += extra_ms;
    } else {
      extra_ms = 0.0;
    }
  }

  switch (p->req.kind) {
    case DiskOpKind::kRead:
    case DiskOpKind::kWrite: {
      stats_.transfer_ms += plan.transfer_ms;
      (p->req.kind == DiskOpKind::kRead ? stats_.reads : stats_.writes)++;
      active_ = p;
      if (p->req.kind == DiskOpKind::kWrite) {
        active_write_start_ = plan.transfer_start;
        active_write_end_ = plan.end_time;
      }
      const SimTime done = plan.end_time + extra_ms;
      const std::uint64_t epoch = power_epoch_;
      // Capture scalars, not the whole TransferPlan: the lambda then fits
      // EventQueue::Callback's buffer and the schedule allocates nothing.
      const int end_cyl = plan.end_cylinder;
      eq_.schedule_at(done, [this, p = std::move(p), start, done, end_cyl,
                             epoch] {
        if (epoch != power_epoch_) return;  // killed by a power failure
        complete(*p, start, done, end_cyl);
      });
      break;
    }
    case DiskOpKind::kReadModifyWrite: {
      // RMW extents must fit in one cylinder so the in-place rewrite lands
      // exactly k revolutions after the read began.
      const int spc = geometry_.sectors_per_cylinder();
      if (start_sector / spc != (start_sector + sector_count - 1) / spc)
        throw std::logic_error("Disk: RMW extent crosses a cylinder");
      ++stats_.rmws;
      stats_.transfer_ms += 2.0 * plan.transfer_ms;  // read + write passes

      const double rot = geometry_.rotation_ms();
      const int min_revs = std::max(
          1, static_cast<int>(std::ceil(plan.transfer_ms / rot - 1e-9)));
      active_ = p;
      const std::uint64_t epoch = power_epoch_;
      // A slow read pass delays read_done; schedule_rmw_write then pushes
      // the in-place rewrite onto a later whole revolution, exactly as a
      // late gate would. Scalar captures keep both this lambda and the
      // gate waiter inside their inline-storage buffers.
      const SimTime xfer_start = plan.transfer_start;
      const int end_cyl = plan.end_cylinder;
      eq_.schedule_at(plan.end_time + extra_ms,
                      [this, shared = std::move(p), start, xfer_start, end_cyl,
                       sector_count, min_revs, epoch] {
        if (epoch != power_epoch_) return;  // killed by a power failure
        const SimTime read_done = eq_.now();
        if (shared->obs_id) {
          // Close the read pass, open the write pass under the same span
          // id; the write span absorbs any gate hold and rotation wait.
          obs_end(tracer_, shared->obs_id, shared->obs_phase, obs_array_, id_,
                  read_done);
          shared->obs_phase = rmw_write_phase(shared->obs_phase);
          obs_begin_with(tracer_, shared->obs_id, shared->obs_phase,
                         obs_array_, id_, read_done);
        }
        if (shared->req.on_read_done) shared->req.on_read_done(read_done);
        auto& gate = shared->req.gate;
        if (gate && !gate->is_open()) {
          // Hold the disk: spin until the gate opens (SI policy behaviour).
          gate->waiter_ = [this, shared, start, xfer_start, sector_count,
                           end_cyl, min_revs, epoch](SimTime opened) {
            if (epoch != power_epoch_) return;
            schedule_rmw_write(shared, start, xfer_start, sector_count,
                               end_cyl, min_revs, opened);
          };
        } else {
          // The write may start no earlier than the (possibly slowed)
          // read pass actually ended, whatever the gate says.
          const SimTime earliest =
              gate ? std::max(gate->ready_time(), read_done) : read_done;
          schedule_rmw_write(shared, start, xfer_start, sector_count,
                             end_cyl, min_revs, earliest);
        }
      });
      break;
    }
  }
}

void Disk::schedule_rmw_write(OpRef<Pending> p, SimTime service_start,
                              SimTime transfer_start, int sector_count,
                              int end_cylinder, int min_revolutions,
                              SimTime earliest) {
  const double rot = geometry_.rotation_ms();
  int revs = min_revolutions;
  if (earliest > transfer_start + static_cast<double>(revs) * rot) {
    revs = static_cast<int>(
        std::ceil((earliest - transfer_start) / rot - 1e-9));
  }
  const std::uint64_t held =
      static_cast<std::uint64_t>(revs - min_revolutions);
  stats_.held_rotations += held;
  stats_.hold_ms += static_cast<double>(held) * rot;

  const SimTime write_start =
      transfer_start + static_cast<double>(revs) * rot;
  const SimTime write_end =
      write_start +
      static_cast<double>(sector_count) * geometry_.sector_time_ms();
  active_write_start_ = write_start;
  active_write_end_ = write_end;
  const std::uint64_t epoch = power_epoch_;
  eq_.schedule_at(write_end, [this, p, service_start, write_end,
                              end_cylinder, epoch] {
    if (epoch != power_epoch_) return;  // killed by a power failure
    complete(*p, service_start, write_end, end_cylinder);
  });
}

Disk::PowerFailReport Disk::power_fail() {
  PowerFailReport report;
  if (powered_off_) return report;
  powered_off_ = true;
  ++power_epoch_;  // invalidates every scheduled completion/waiter

  // Swap-remove leaves the queue vectors unordered; deliver the kill
  // callbacks in arrival (seq) order so crash handling stays
  // deterministic and matches what a FIFO walk of the queue produced.
  // The queue is detached first: a kill callback that resubmits finds
  // the disk powered off and an empty queue.
  std::vector<OpRef<Pending>> killed;
  killed.swap(queue_);
  qkeys_.clear();
  std::sort(killed.begin(), killed.end(),
            [](const OpRef<Pending>& a, const OpRef<Pending>& b) {
              return a->seq < b->seq;
            });
  for (const OpRef<Pending>& p : killed) {
    ++report.queued_ops;
    if (p->req.kind != DiskOpKind::kRead)
      report.write_blocks_lost += static_cast<std::uint64_t>(p->req.block_count);
    if (p->req.on_power_fail) p->req.on_power_fail(eq_.now(), 0);
  }
  // Dropping the handles destroys every killed request and its callbacks.
  killed.clear();

  if (busy_ && active_) {
    ++report.inflight_ops;
    int durable = 0;
    if (active_->req.kind != DiskOpKind::kRead && active_write_start_ >= 0.0) {
      // The head lays down sectors front-to-back through the write
      // window; the prefix already under the head is on the medium.
      const double span = active_write_end_ - active_write_start_;
      const double frac =
          span > 0.0 ? (eq_.now() - active_write_start_) / span : 1.0;
      durable = std::clamp(
          static_cast<int>(std::floor(
              frac * static_cast<double>(active_->req.block_count))),
          0, active_->req.block_count);
    }
    if (active_->req.kind != DiskOpKind::kRead) {
      report.write_blocks_durable += static_cast<std::uint64_t>(durable);
      report.write_blocks_lost +=
          static_cast<std::uint64_t>(active_->req.block_count - durable);
    }
    if (active_->req.on_power_fail)
      active_->req.on_power_fail(eq_.now(), durable);
  }
  active_.reset();
  active_write_start_ = active_write_end_ = -1.0;
  busy_ = false;
  return report;
}

void Disk::power_on() {
  powered_off_ = false;
  if (!busy_) start_next();
}

void Disk::plant_media_error(std::int64_t block) {
  assert(block >= 0 && block < geometry_.total_blocks());
  bad_blocks_.insert(block);
}

bool Disk::has_media_error(std::int64_t start_block, int block_count) const {
  if (bad_blocks_.empty()) return false;
  for (int i = 0; i < block_count; ++i)
    if (bad_blocks_.count(start_block + i)) return true;
  return false;
}

int Disk::media_errors_in(std::int64_t start_block, int block_count) const {
  if (bad_blocks_.empty()) return 0;
  int n = 0;
  for (int i = 0; i < block_count; ++i)
    if (bad_blocks_.count(start_block + i)) ++n;
  return n;
}

void Disk::clear_media_errors(std::int64_t start_block, int block_count) {
  if (bad_blocks_.empty()) return;
  for (int i = 0; i < block_count; ++i) bad_blocks_.erase(start_block + i);
}

void Disk::complete(const Pending& p, SimTime service_start, SimTime end_time,
                    int end_cylinder) {
  head_cylinder_ = end_cylinder;
  stats_.busy_ms += end_time - service_start;
  op_latency_.add(end_time - p.enqueue_time);
  // TCP-RTT-style smoothing (alpha = 1/8): responsive enough to see a
  // sticky slowdown within a few tens of ops, smooth enough to ignore a
  // single unlucky seek.
  constexpr double kEwmaAlpha = 0.125;
  const double op_ms = end_time - p.enqueue_time;
  ewma_latency_ms_ = op_latency_.count() <= 1
                         ? op_ms
                         : kEwmaAlpha * op_ms +
                               (1.0 - kEwmaAlpha) * ewma_latency_ms_;
  active_.reset();
  active_write_start_ = active_write_end_ = -1.0;
  obs_end(tracer_, p.obs_id, p.obs_phase, obs_array_, id_, end_time);

  // Fault disposition: only requests that installed an error handler
  // participate; the evaluator is consulted first (it may plant media
  // errors as a side effect), then reads are checked against the
  // latent-error set. The op has already consumed its mechanical
  // service time -- a timeout holds the spindle just like a success.
  DiskError error = DiskError::kNone;
  if (p.req.on_error) {
    if (fault_evaluator_) error = fault_evaluator_(p.req);
    if (error == DiskError::kNone && p.req.kind == DiskOpKind::kRead &&
        has_media_error(p.req.start_block, p.req.block_count))
      error = DiskError::kMedia;
  }
  if (error == DiskError::kNone && p.req.kind != DiskOpKind::kRead) {
    // A successful (re)write remaps any latent-error sectors it covers.
    clear_media_errors(p.req.start_block, p.req.block_count);
  }

  if (error != DiskError::kNone) {
    (error == DiskError::kTransient ? stats_.transient_faults
                                    : stats_.media_faults)++;
    p.req.on_error(end_time, error);
  } else if (p.req.on_complete) {
    p.req.on_complete(end_time);
  }
  start_next();
}

}  // namespace raidsim
