#pragma once

#include <cstdint>
#include <vector>

#include "sim/small_function.hpp"
#include "util/arena.hpp"

namespace raidsim {

/// Simulation time in milliseconds since the start of the run.
using SimTime = double;

/// Completion continuation threaded through the controller/channel/disk
/// stack (the `done` / `on_complete` parameters). Inline storage is sized
/// for the largest hot-path capture -- the simulator's host-completion
/// lambda (a `this`, a few scalars, and a wrapped host callback) -- so
/// the per-request completion chain performs zero heap allocations;
/// larger captures fall back to one allocation, like std::function.
using Completion = SmallFunction<void(SimTime), 80>;

/// Power-fail continuation of a disk write: invoked instead of the
/// completion when a crash kills the op, with the durable leading-block
/// count. Captures are small (an op-state handle or a `this` + extent).
using PowerFail = SmallFunction<void(SimTime, int), 48>;

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Never zero, so zero is a safe "no event" sentinel for callers.
using EventId = std::uint64_t;

/// Single-valued and ignored. They exist only because bench/e2e/layers.cpp
/// spells `EventQueue(config.event_kernel, config.op_alloc)`; delete them,
/// the matching SimulationConfig fields and the EventQueue constructor
/// parameters together when that file next changes.
enum class EventKernel { kCalendar };
enum class OpAlloc { kArena };

/// Discrete-event simulation kernel. Events are (time, callback) pairs;
/// ties are broken by schedule order so that runs are fully deterministic.
///
/// The priority structure is a **circular calendar queue** over a slot
/// table holding the callbacks. An event at time t has the
///    absolute bucket index B(t) = floor((t - epoch_) / width_) and is
///    stored at B(t) mod nbuckets_ — buckets wrap around like days of a
///    calendar year. An in-horizon schedule is therefore O(1): one
///    multiply plus a push_back, no heap sift. The dispatch cursor walks
///    absolute indices; a bucket scan consumes the entries due in the
///    cursor's time window [start(B), start(B+1)) and leaves future-year
///    residents in place (an entry is re-scanned once per wrap, and a
///    wrap covers the whole live population's span, so that is O(1)
///    amortized). When a full wrap finds nothing due, the cursor jumps
///    straight to the bucket of the earliest live entry. The bucket
///    count and width resize automatically on occupancy. A tiny 4-ary
///    "overflow ladder" heap holds only events beyond 2^52 bucket
///    widths, where absolute indices would lose integer precision —
///    unreachable in simulation workloads.
///
/// Slots are reused through a free list and generation-tagged, so
/// liveness/cancellation checks are a single integer compare (no
/// hash-set lookups), and the callback storage is inline
/// (SmallFunction), so the common schedule path allocates nothing.
/// Cancellation is lazy in the priority structure (stale entries are
/// dropped on pop or bucket scan) but eager in the slot table: the
/// callback is destroyed and its slot recycled immediately, which keeps
/// pending()/empty() exact under any cancellation pattern.
///
/// Dispatch is **batched**: the due slice of the cursor bucket is
/// drained into a sorted batch and executed without re-touching the
/// priority structure per event (the batch persists across
/// step()/run()/run_until() calls, so single-stepped drains get the
/// same amortization). A callback that schedules work *earlier* than
/// the batch tail is ordered-inserted directly into the batch — any
/// such event provably precedes everything outside the batch — so the
/// exact (time, seq) order is always preserved.
class EventQueue {
 public:
  /// Move-only `void()` callable with inline storage, sized to hold the
  /// pump/dispatch lambdas (this + TraceRecord + stream pointer, or this
  /// + time + continuation) without touching the heap.
  using Callback = SmallFunction<void()>;

  // Both parameters are unused: bench/e2e/layers.cpp still passes them.
  explicit EventQueue(EventKernel = EventKernel::kCalendar,
                      OpAlloc = OpAlloc::kArena);

  /// Per-engine allocator for op state (util/arena.hpp). Owned here so
  /// every OpRef captured in a pending callback is freed before the
  /// arena dies: arena_ is the first member, hence destroyed last.
  OpArena& op_arena() { return arena_; }

  /// Pre-size the slot table and calendar staging for an expected number
  /// of concurrently pending events. Purely an allocation warm-up;
  /// per-shard engines call this so steady-state scheduling never
  /// touches the global allocator.
  void reserve(std::size_t expected_pending);

  /// Current simulation time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `when` (clamped to now()).
  EventId schedule_at(SimTime when, Callback cb);

  /// Schedule `cb` `delay` ms from now.
  EventId schedule_in(SimTime delay, Callback cb);

  /// Cancel a pending event. Returns true if it had not yet run or been
  /// cancelled; cancelling an already-run or unknown id is a no-op.
  bool cancel(EventId id);

  /// True when no runnable (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of pending (non-cancelled) events.
  std::size_t pending() const { return live_; }

  /// Run the next event; returns false if none remain.
  bool step();

  /// Run until the queue drains, `limit` events have executed (limit ==
  /// 0 means unbounded) or a callback calls stop(). Returns the number
  /// executed.
  std::uint64_t run(std::uint64_t limit = 0);

  /// Make the run() in progress return once the current callback
  /// finishes, before any other event runs. A stop requested outside
  /// run() is dropped when the next run() starts.
  void stop() { stop_ = true; }

  /// Run events until simulation time would exceed `until`; events at
  /// exactly `until` are executed, and now() advances to `until`.
  /// Returns the number executed.
  std::uint64_t run_until(SimTime until);

  /// Total events executed over the lifetime of the queue.
  std::uint64_t executed() const { return executed_; }

  /// Calendar geometry constants, public so boundary tests can place
  /// events exactly on bucket and year edges.
  static constexpr std::size_t kMinBuckets = 32;
  static constexpr double kInitialBucketWidthMs = 1.0;

  /// Current bucket width (ms). Test/introspection only; changes as the
  /// calendar resizes.
  double bucket_width() const { return width_; }
  std::size_t bucket_count() const { return nbuckets_; }

 private:
  static constexpr std::size_t kArity = 4;

  /// Priority entries carry everything the ordering needs by value, so
  /// moving them between buckets/ladder never touches the slot table.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;   // schedule order; FIFO tie-break at equal times
    std::uint32_t slot;
    std::uint32_t gen;   // must match the slot's generation to be live
  };

  /// Generation protocol: a slot's generation is odd while an event
  /// occupies it and even while it is free. Scheduling bumps it odd (the
  /// id captures that value); cancel/execute bumps it even, so any stale
  /// id or priority entry mis-compares in O(1).
  struct Slot {
    std::uint32_t gen = 0;
    Callback cb;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Slot machinery.
  /// Retire the live event behind `e` (slot freed, callback moved out).
  Callback take_slot(const HeapEntry& e);
  bool stale(const HeapEntry& e) const {
    return slots_[e.slot].gen != e.gen;
  }
  void execute(const HeapEntry& e);

  // 4-ary min-heap primitives for the far-future overflow ladder.
  void sift_up(std::vector<HeapEntry>& h, std::size_t i) const;
  void sift_down(std::vector<HeapEntry>& h, std::size_t i) const;
  void pop_root(std::vector<HeapEntry>& h) const;

  // Calendar. Bucket indices are *absolute* (bucket j covers
  // [start(j), start(j+1)) for all time); storage wraps at j & mask_.
  double bucket_start(std::uint64_t j) const {
    return epoch_ + width_ * static_cast<double>(j);
  }
  /// Absolute bucket index of time t, snapped to the canonical bucket
  /// boundaries (the multiply can round across an edge).
  std::uint64_t abs_bucket_of(SimTime t) const;
  void insert_entry(const HeapEntry& e);
  /// Bucket placement without the batch/overflow routing of
  /// insert_entry; used when redistributing entries that are already
  /// ordered correctly relative to the ladder.
  void place_in_bucket(const HeapEntry& e);
  /// Scan buckets in cursor order and move the due slice of the first
  /// eligible one into batch_, sorted. Returns false when nothing
  /// remains anywhere.
  bool refill_batch();
  /// Re-anchor the epoch at the overflow-ladder minimum and move the
  /// now-representable entries into buckets. Pre: buckets hold no live
  /// entries. Returns false if the ladder is empty too.
  bool drain_overflow();
  void rebuild(std::size_t new_nbuckets);
  void maybe_shrink();

  OpArena arena_;  // must precede everything that can hold OpRefs
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;

  // Calendar state.
  std::vector<std::vector<HeapEntry>> buckets_;
  std::vector<HeapEntry> ladder_;   // overflow only: t beyond 2^52 buckets
  std::vector<HeapEntry> scratch_;  // rebuild staging, capacity reused
  double width_ = kInitialBucketWidthMs;
  double inv_width_ = 1.0 / kInitialBucketWidthMs;
  double epoch_ = 0.0;           // time of absolute bucket 0
  std::size_t nbuckets_ = 0;     // always a power of two
  std::size_t mask_ = 0;         // nbuckets_ - 1
  std::uint64_t cursor_ = 0;     // absolute index of the current bucket
  std::size_t in_buckets_ = 0;   // entries resident in buckets (incl. stale)
  std::uint64_t pops_since_rebuild_ = 0;
  bool rebuilding_ = false;
  bool stop_ = false;  // see stop()

  // Batched-dispatch state. The batch persists across public calls:
  // step()/run()/run_until() all dispatch from it, refilling a bucket's
  // due slice at a time. Entries not yet dispatched live here instead of
  // in a bucket; cancellation still works through the slot generations.
  std::vector<HeapEntry> batch_;
  std::size_t batch_pos_ = 0;
  double batch_limit_ = 0.0;  // max time in batch; valid iff batch nonempty
};

}  // namespace raidsim
