#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace raidsim {

namespace {

constexpr EventId make_id(std::uint32_t slot, std::uint32_t gen) {
  return (static_cast<EventId>(gen) << 32) | slot;
}

/// Width policy: on rebuild, size buckets so the live population spreads
/// ~this many events per bucket. Batched dispatch drains a bucket's due
/// slice at a time, so a handful per bucket amortizes the refill/sort
/// overhead without making the per-bucket sort significant.
constexpr double kWidthEventsPerBucket = 8.0;

/// Grow (double the bucket count, re-estimating width) when occupancy
/// exceeds this multiple of the bucket count. Twice the width target, so
/// a freshly rebuilt calendar has headroom before the next rebuild.
constexpr std::size_t kGrowOccupancy = 16;

/// Events further out than this many bucket widths go to the overflow
/// ladder: beyond 2^52 buckets the absolute index arithmetic would lose
/// integer precision (and the snapped boundaries their meaning).
constexpr double kMaxBucketIndex = 4503599627370496.0;  // 2^52

}  // namespace

EventQueue::EventQueue(EventKernel, OpAlloc)
    : buckets_(kMinBuckets), nbuckets_(kMinBuckets), mask_(kMinBuckets - 1) {}

void EventQueue::reserve(std::size_t expected_pending) {
  slots_.reserve(expected_pending);
  free_.reserve(expected_pending);
  scratch_.reserve(expected_pending);
  batch_.reserve(256);
  for (std::vector<HeapEntry>& b : buckets_) b.reserve(16);
}

EventId EventQueue::schedule_at(SimTime when, Callback cb) {
  if (when < now_) when = now_;

  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.gen += 1;  // even -> odd: occupied
  s.cb = std::move(cb);
  ++live_;

  insert_entry(HeapEntry{when, seq_++, slot, s.gen});
  return make_id(slot, s.gen);
}

EventId EventQueue::schedule_in(SimTime delay, Callback cb) {
  assert(delay >= 0.0);
  return schedule_at(now_ + delay, std::move(cb));
}

bool EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen || (gen & 1u) == 0)
    return false;
  Slot& s = slots_[slot];
  s.gen += 1;  // odd -> even: freed; the priority entry is now stale
  s.cb.reset();
  free_.push_back(slot);
  --live_;
  return true;
}

EventQueue::Callback EventQueue::take_slot(const HeapEntry& e) {
  Slot& s = slots_[e.slot];
  Callback cb = std::move(s.cb);
  // odd -> even: freed before the callback runs, so the event cannot
  // cancel itself and its slot is immediately reusable.
  s.gen += 1;
  free_.push_back(e.slot);
  --live_;
  return cb;
}

void EventQueue::execute(const HeapEntry& e) {
  assert(e.time >= now_);
  now_ = e.time;
  Callback cb = take_slot(e);
  ++executed_;
  cb();
}

void EventQueue::sift_up(std::vector<HeapEntry>& h, std::size_t i) const {
  const HeapEntry e = h[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, h[parent])) break;
    h[i] = h[parent];
    i = parent;
  }
  h[i] = e;
}

void EventQueue::sift_down(std::vector<HeapEntry>& h, std::size_t i) const {
  const HeapEntry e = h[i];
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (earlier(h[c], h[best])) best = c;
    if (!earlier(h[best], e)) break;
    h[i] = h[best];
    i = best;
  }
  h[i] = e;
}

void EventQueue::pop_root(std::vector<HeapEntry>& h) const {
  h.front() = h.back();
  h.pop_back();
  if (!h.empty()) sift_down(h, 0);
}

// ---------------------------------------------------------------------------
// Calendar (circular).
//
// Ordering invariants the batched dispatch rests on:
//
//  1. An entry stored unclamped sits at its absolute bucket B(t), whose
//     window [start(B), start(B+1)) contains t (insertion snaps to the
//     canonical boundaries, so floating-point rounding cannot leak an
//     entry across an edge).
//  2. An entry clamped *up* to the cursor (t already inside or before
//     the cursor's window) is due immediately, so the next scan of the
//     cursor bucket always consumes it: the cursor never advances past
//     a bucket holding a due entry.
//  3. Bucket residents are strictly earlier than every ladder entry:
//     inserts at or past the ladder minimum are routed to the ladder
//     (equal times must go there too — the ladder may hold an
//     equal-time entry with a smaller seq), and the ladder minimum
//     never decreases, so the invariant survives rebuilds that widen
//     the bucketed horizon.
//
// Together these mean the due slice of the first eligible cursor bucket
// is exactly the global minimum run: everything else in buckets is at
// or past the next bucket boundary, and everything in the ladder is
// later still. Sorting that slice by (time, seq) yields the exact global
// (time, seq) dispatch order.

void EventQueue::insert_entry(const HeapEntry& e) {
  // An insert that undercuts the pending tail of the batch belongs *in*
  // the batch: it precedes everything outside it (bucket residents are
  // at or past the next boundary, which is past the batch tail), so an
  // ordered insert preserves the exact dispatch order. Equal times take
  // the bucket path: the new entry's seq is larger than every batched
  // seq, so it belongs after the batch.
  if (batch_pos_ < batch_.size() && e.time < batch_limit_) {
    batch_.insert(
        std::upper_bound(batch_.begin() + batch_pos_, batch_.end(), e,
                         earlier),
        e);
    return;
  }
  if (!ladder_.empty() && e.time >= ladder_.front().time) {
    ladder_.push_back(e);
    sift_up(ladder_, ladder_.size() - 1);
    return;
  }
  place_in_bucket(e);
}

void EventQueue::place_in_bucket(const HeapEntry& e) {
  std::uint64_t idx = cursor_;
  if (e.time > epoch_) {
    const double raw = (e.time - epoch_) * inv_width_;
    if (raw >= kMaxBucketIndex) {  // beyond index precision: overflow
      ladder_.push_back(e);
      sift_up(ladder_, ladder_.size() - 1);
      return;
    }
    idx = static_cast<std::uint64_t>(raw);
    // Snap to the canonical boundaries so bucket j holds exactly
    // [start(j), start(j+1)); the multiply can round across an edge.
    while (e.time >= bucket_start(idx + 1)) ++idx;
    while (idx > 0 && e.time < bucket_start(idx)) --idx;
    // Times at or before the cursor's window land in the cursor bucket;
    // they are due immediately and consumed by the next scan.
    if (idx < cursor_) idx = cursor_;
  }
  buckets_[idx & mask_].push_back(e);
  ++in_buckets_;
  if (!rebuilding_ && in_buckets_ > kGrowOccupancy * nbuckets_)
    rebuild(nbuckets_ * 2);
}

std::uint64_t EventQueue::abs_bucket_of(SimTime t) const {
  if (t <= epoch_) return 0;
  std::uint64_t idx = static_cast<std::uint64_t>((t - epoch_) * inv_width_);
  while (t >= bucket_start(idx + 1)) ++idx;
  while (idx > 0 && t < bucket_start(idx)) --idx;
  return idx;
}

void EventQueue::rebuild(std::size_t new_nbuckets) {
  rebuilding_ = true;
  scratch_.clear();
  for (std::vector<HeapEntry>& b : buckets_) {
    for (const HeapEntry& e : b)
      if (!stale(e)) scratch_.push_back(e);
    b.clear();
  }
  in_buckets_ = 0;
  pops_since_rebuild_ = 0;
  nbuckets_ = new_nbuckets;
  mask_ = nbuckets_ - 1;
  if (buckets_.size() < nbuckets_) buckets_.resize(nbuckets_);

  // Re-anchor the epoch at the earliest live entry and re-estimate the
  // width so the live population spreads out at the batch-friendly
  // target occupancy. A degenerate span (all entries at one instant)
  // keeps the old width: no finite width can separate them, and they
  // dispatch as a single sorted batch anyway.
  double lo = now_;
  if (!scratch_.empty()) {
    lo = scratch_.front().time;
    double hi = lo;
    for (const HeapEntry& e : scratch_) {
      lo = std::min(lo, e.time);
      hi = std::max(hi, e.time);
    }
    const double span = hi - lo;
    if (span > 0.0) {
      const double w = kWidthEventsPerBucket * span /
                       static_cast<double>(scratch_.size());
      if (std::isfinite(w) && w > 0.0) {
        width_ = w;
        inv_width_ = 1.0 / w;
      }
    }
  }
  epoch_ = lo;
  cursor_ = 0;
  // Re-place through insert_entry: a narrower width can push an entry
  // past the precision horizon (overflow routing), and the ladder-min
  // routing keeps invariant 3 — bucket residents are strictly earlier
  // than the ladder, so no scratch entry can tie with the ladder front
  // except one the overflow drain just popped, which the heap reorders
  // correctly by (time, seq) if it bounces back.
  for (const HeapEntry& e : scratch_) insert_entry(e);
  rebuilding_ = false;
}

void EventQueue::maybe_shrink() {
  // Occupancy has fallen an order of magnitude below target: halve.
  // Rate-limited so a transient dip cannot thrash the geometry.
  if (nbuckets_ > kMinBuckets && in_buckets_ < nbuckets_ &&
      pops_since_rebuild_ > nbuckets_)
    rebuild(nbuckets_ / 2);
}

bool EventQueue::drain_overflow() {
  while (!ladder_.empty() && stale(ladder_.front())) pop_root(ladder_);
  if (ladder_.empty()) return false;
  // Only stale husks can remain in the buckets here; drop them wholesale.
  if (in_buckets_ > 0) {
    for (std::vector<HeapEntry>& b : buckets_) b.clear();
    in_buckets_ = 0;
  }
  epoch_ = ladder_.front().time;
  cursor_ = 0;
  // Move entries inside the new precision horizon into buckets, in heap
  // order. place_in_bucket bypasses insert_entry's ladder-min routing:
  // a popped entry may tie the new front's time with a smaller seq and
  // must still land in a bucket (it dispatches first). A grow-rebuild
  // mid-loop can change the geometry; the conditions re-read it.
  for (;;) {
    while (!ladder_.empty() && stale(ladder_.front())) pop_root(ladder_);
    if (ladder_.empty()) break;
    const HeapEntry e = ladder_.front();
    if (e.time > epoch_ && (e.time - epoch_) * inv_width_ >= kMaxBucketIndex)
      break;  // still beyond the horizon; stays in the ladder
    pop_root(ladder_);
    place_in_bucket(e);
  }
  return true;
}

bool EventQueue::refill_batch() {
  batch_.clear();
  batch_pos_ = 0;
  if (live_ == 0) return false;  // exact: executed/cancelled all decrement
  for (;;) {
    // One full wrap visits every residue, i.e. every stored entry.
    double min_future = std::numeric_limits<double>::infinity();
    for (std::size_t scanned = 0; scanned < nbuckets_; ++scanned) {
      std::vector<HeapEntry>& b = buckets_[cursor_ & mask_];
      if (!b.empty()) {
        const double deadline = bucket_start(cursor_ + 1);
        std::size_t keep = 0;
        for (std::size_t i = 0; i < b.size(); ++i) {
          const HeapEntry e = b[i];
          if (stale(e)) continue;  // cancelled: reclaim lazily
          if (e.time < deadline) {
            batch_.push_back(e);  // due in this bucket's window
            continue;
          }
          if (e.time < min_future) min_future = e.time;
          b[keep++] = e;  // future wrap of this residue: stays put
        }
        in_buckets_ -= b.size() - keep;
        b.resize(keep);
      }
      ++cursor_;
      if (!batch_.empty()) {
        std::sort(batch_.begin(), batch_.end(), earlier);
        batch_limit_ = batch_.back().time;
        pops_since_rebuild_ += batch_.size();
        maybe_shrink();  // safe: the batch is already extracted
        return true;
      }
    }
    if (min_future == std::numeric_limits<double>::infinity()) {
      // Nothing lives in any bucket; live_ > 0 means the overflow
      // ladder holds everything that remains.
      if (!drain_overflow()) return false;
    } else {
      // A whole empty year: jump the cursor straight to the earliest
      // live entry's bucket. The jump is always forward — an entry that
      // survived a scan is at least a full wrap ahead of it.
      cursor_ = abs_bucket_of(min_future);
    }
  }
}

bool EventQueue::step() {
  for (;;) {
    if (batch_pos_ >= batch_.size() && !refill_batch()) return false;
    const HeapEntry e = batch_[batch_pos_++];
    if (stale(e)) continue;  // cancelled after batching
    execute(e);
    return true;
  }
}

std::uint64_t EventQueue::run(std::uint64_t limit) {
  std::uint64_t count = 0;
  stop_ = false;
  while (limit == 0 || count < limit) {
    if (batch_pos_ >= batch_.size() && !refill_batch()) break;
    const HeapEntry e = batch_[batch_pos_++];
    if (stale(e)) continue;  // cancelled after batching
    execute(e);
    ++count;
    if (stop_) break;
  }
  return count;
}

std::uint64_t EventQueue::run_until(SimTime until) {
  std::uint64_t count = 0;
  for (;;) {
    if (batch_pos_ >= batch_.size() && !refill_batch()) break;
    const HeapEntry e = batch_[batch_pos_];
    if (stale(e)) {  // cancelled after batching
      ++batch_pos_;
      continue;
    }
    if (e.time > until) break;  // stays batched for the next call
    ++batch_pos_;
    execute(e);
    ++count;
  }
  if (now_ < until) now_ = until;
  return count;
}

}  // namespace raidsim
