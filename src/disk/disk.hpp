#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <memory>
#include <unordered_set>
#include <vector>

#include "disk/geometry.hpp"
#include "disk/seek_model.hpp"
#include "obs/tracer.hpp"
#include "sim/event_queue.hpp"
#include "sim/small_function.hpp"
#include "util/arena.hpp"
#include "util/stats.hpp"

namespace raidsim {

/// Queueing priority at a disk. Higher values are served first;
/// ties are FIFO. Destage (background) traffic yields to demand reads,
/// and the /PR synchronization policies promote parity accesses.
enum class DiskPriority : int {
  kDestage = 0,
  kNormal = 1,
  kParity = 2,
};

/// Order in which queued requests are dispatched within a priority
/// class. The paper's simulator services requests in arrival order
/// (FIFO, the default); SSTF and SCAN are provided for scheduling
/// ablations.
enum class DiskScheduling {
  kFifo,  // arrival order
  kSstf,  // shortest seek time first
  kScan,  // elevator: sweep up, reverse at the top
};

std::string to_string(DiskScheduling scheduling);

enum class DiskOpKind {
  kRead,
  kWrite,
  /// Read the extent, then rewrite it in place one or more full
  /// revolutions later (small-write parity update path, Section 3.3).
  kReadModifyWrite,
};

/// Failure modes an access can report (fault-injection support). Faults
/// are only delivered to requests that install an `on_error` handler;
/// legacy submitters see every access succeed.
enum class DiskError {
  kNone,
  /// Timeout/aborted command: the op consumed its mechanical service
  /// time but returned no data. Retryable.
  kTransient,
  /// Latent sector error: one or more blocks of a read are unreadable.
  /// Persistent until the extent is rewritten (sector remap).
  kMedia,
};

std::string to_string(DiskError error);

/// Synchronization gate for the write phase of a read-modify-write
/// access: the in-place write may not begin before the gate opens (e.g.
/// the new parity only exists once the old data have been read on the
/// data disks). If the gate is still closed when the disk is ready to
/// write, the disk is *held*, spinning through full revolutions until the
/// gate opens -- exactly the behaviour the paper describes for the
/// Simultaneous Issue policy.
class WriteGate {
 public:
  /// An open gate never delays the write. Allocated against the engine's
  /// op arena (always eq.op_arena() of the queue driving the disks).
  static OpRef<WriteGate> already_open(OpArena& arena);

  void open(SimTime now);
  bool is_open() const { return open_; }
  SimTime ready_time() const { return ready_time_; }

 private:
  friend class Disk;
  bool open_ = false;
  SimTime ready_time_ = 0.0;
  SmallFunction<void(SimTime)> waiter_;
};

/// One access submitted to a disk. Addresses are in logical blocks local
/// to this disk. Extents must be physically contiguous; the disk splits
/// cylinder crossings internally (read/write only -- RMW extents must fit
/// within one cylinder, which controllers guarantee by splitting).
struct DiskRequest {
  DiskOpKind kind = DiskOpKind::kRead;
  std::int64_t start_block = 0;
  int block_count = 1;
  DiskPriority priority = DiskPriority::kNormal;
  OpRef<WriteGate> gate;  // RMW only; null means always ready
  /// Tracer tag for the service span. kAuto derives the phase from the op
  /// kind (read-data / write-data / read-old-data); submitters that know
  /// better override it (parity RMW, full-stripe parity write, rebuild).
  ObsPhase obs_phase = ObsPhase::kAuto;

  /// Completion callbacks are move-only inline-storage callables (the
  /// same SmallFunction machinery as EventQueue::Callback):
  /// typical controller continuations live inside the request itself, so
  /// the submit path performs no callback heap allocations. A copyable
  /// std::function still converts implicitly (it gets wrapped), so
  /// legacy submitters keep working; DiskRequest itself becomes
  /// move-only, which every submit site already respects.

  /// Invoked when the access acquires the disk (seek begins). Used by the
  /// Disk First synchronization policies.
  SmallFunction<void(SimTime)> on_start;
  /// RMW only: invoked when the old data/parity have been read.
  SmallFunction<void(SimTime)> on_read_done;
  /// Invoked when the access fully completes.
  SmallFunction<void(SimTime)> on_complete;
  /// Invoked INSTEAD of on_complete when the access faults (transient
  /// timeout or media error). Requests without a handler opt out of
  /// fault injection entirely and always complete. Wider inline storage:
  /// the controller's retry continuation carries the extent, both outer
  /// callbacks, and the backoff state.
  SmallFunction<void(SimTime, DiskError), 128> on_error;
  /// Invoked (instead of any other callback) when the disk loses power
  /// while the request is queued or in service. `durable_blocks` is the
  /// length of the leading prefix of a write extent that reached the
  /// medium before the power failed -- always 0 for reads, for queued
  /// requests, and for RMW accesses still in their read phase.
  SmallFunction<void(SimTime, int durable_blocks)> on_power_fail;
};

struct DiskStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t rmws = 0;
  double busy_ms = 0.0;
  double seek_ms = 0.0;
  double latency_ms = 0.0;   // rotational latency
  double transfer_ms = 0.0;
  double hold_ms = 0.0;      // time spent held waiting on write gates
  double queue_ms = 0.0;     // cumulative queueing delay
  std::uint64_t held_rotations = 0;  // extra full revolutions due to gates
  std::uint64_t transient_faults = 0;  // ops failed with a transient timeout
  std::uint64_t media_faults = 0;      // reads that hit a latent sector error
  std::uint64_t power_fail_drops = 0;  // submissions refused while powered off
  std::uint64_t slow_ops = 0;          // ops stretched by the slowdown hook
  double slowdown_ms = 0.0;            // total extra service time injected

  std::uint64_t ops() const { return reads + writes + rmws; }
  double utilization(SimTime elapsed) const {
    return elapsed > 0.0 ? busy_ms / elapsed : 0.0;
  }
};

/// Event-driven model of a single rotating disk drive with a FIFO
/// priority queue, the calibrated seek curve, and continuous rotation
/// (rotational position is a function of absolute simulation time; no
/// spindle synchronization across disks, per Section 3.2).
class Disk {
 public:
  Disk(EventQueue& eq, const DiskGeometry& geometry, const SeekModel* seek,
       int id, DiskScheduling scheduling = DiskScheduling::kFifo);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  void submit(DiskRequest req);

  /// Attach the request-lifecycle tracer (null = tracing off). Every op
  /// then emits a queue span (enqueue -> service start) and one or two
  /// service-phase spans on this disk's track.
  void set_tracer(Tracer* tracer, int array_index) {
    tracer_ = tracer;
    obs_array_ = array_index;
  }

  /// Fault-injection hook, consulted once per access that carries an
  /// `on_error` handler (after the mechanical service completes). May
  /// plant media errors on this disk as a side effect. Null = no faults.
  using FaultEvaluator = std::function<DiskError(const DiskRequest&)>;
  void set_fault_evaluator(FaultEvaluator evaluator) {
    fault_evaluator_ = std::move(evaluator);
  }

  /// Fail-slow hook, consulted once per access as it begins service.
  /// Returns extra milliseconds of service time (media-retry bursts,
  /// sticky degradation, stall windows) appended to the mechanical plan.
  /// Unlike the fault evaluator this applies to EVERY access, handler or
  /// not -- a slow spindle slows rebuild sweeps too. Null = no slowdown
  /// (and no per-op overhead beyond a branch).
  using SlowdownHook =
      std::function<double(const DiskRequest&, SimTime service_start,
                           double planned_service_ms)>;
  void set_slowdown_hook(SlowdownHook hook) {
    slowdown_hook_ = std::move(hook);
  }
  bool has_slowdown_hook() const { return slowdown_hook_ != nullptr; }

  /// Latent sector errors: a planted block makes any fault-aware read
  /// covering it fail with DiskError::kMedia until the block is
  /// rewritten (any successful write or RMW clears the blocks it
  /// covers, modelling sector remapping).
  /// What a power failure destroyed: queued operations never started,
  /// the in-service operation (if any), and -- at sector granularity --
  /// how much of an in-flight write made it onto the medium first.
  struct PowerFailReport {
    std::uint64_t queued_ops = 0;            // queued, never started
    std::uint64_t inflight_ops = 0;          // 0 or 1
    std::uint64_t write_blocks_lost = 0;     // write blocks that never landed
    std::uint64_t write_blocks_durable = 0;  // leading blocks that did land
  };

  /// Cut power at the current instant: the queue is discarded, the
  /// in-service access is killed mid-transfer (its leading blocks up to
  /// the current head position are durable, the rest are lost), every
  /// scheduled completion is invalidated, and further submissions are
  /// refused until power_on(). Each killed request's `on_power_fail`
  /// handler (if any) is invoked with its durable prefix; no other
  /// callback of a killed request ever fires.
  PowerFailReport power_fail();

  /// Restore power. The queue starts empty; outstanding state from
  /// before the failure is gone (the controller re-drives recovery I/O).
  void power_on();
  bool powered_off() const { return powered_off_; }

  void plant_media_error(std::int64_t block);
  bool has_media_error(std::int64_t start_block, int block_count) const;
  int media_errors_in(std::int64_t start_block, int block_count) const;
  void clear_media_errors(std::int64_t start_block, int block_count);
  std::size_t media_error_count() const { return bad_blocks_.size(); }

  int id() const { return id_; }
  const DiskGeometry& geometry() const { return geometry_; }
  bool busy() const { return busy_; }
  /// Head position as of the most recent service completion/start.
  int current_cylinder() const { return head_cylinder_; }
  std::size_t queue_length() const { return queue_.size(); }
  const DiskStats& stats() const { return stats_; }

  /// Per-op latency (enqueue -> completion) of every access served by
  /// this disk: streaming moments plus a log-bucketed histogram, the
  /// per-disk half of the tail-latency accounting.
  const LatencyRecorder& op_latency() const { return op_latency_; }
  /// Exponentially-weighted moving average of per-op latency (alpha =
  /// 1/8, TCP-RTT style); the signal the slow-disk detector samples.
  double ewma_latency_ms() const { return ewma_latency_ms_; }

 private:
  struct Pending {
    DiskRequest req;
    SimTime enqueue_time;
    std::uint64_t seq;
    std::uint64_t obs_id = 0;               // span id, 0 when untraced
    ObsPhase obs_phase = ObsPhase::kAuto;   // resolved service phase
  };

  /// Hot half of the queue: everything the scheduling scan needs, 16
  /// bytes per entry, parallel to the cold Pending vector. The cylinder
  /// is precomputed at submit (only under SSTF/SCAN — FIFO never reads
  /// it), so pop_next touches neither the requests nor the geometry.
  struct QueueKey {
    std::uint64_t seq;
    int cylinder;
    DiskPriority priority;
  };

  /// Select (and remove, by swap-with-back) the next request to service:
  /// the highest priority class present, ordered within the class by the
  /// scheduling policy with (time-of-arrival) seq breaking ties.
  Pending pop_next();

  /// Timing of one contiguous transfer starting with the head at
  /// `head_cyl` at time `t`.
  struct TransferPlan {
    SimTime transfer_start = 0.0;  // first data sector under the head
    SimTime end_time = 0.0;
    int end_cylinder = 0;
    double seek_ms = 0.0;
    double latency_ms = 0.0;
    double transfer_ms = 0.0;
  };
  TransferPlan plan_transfer(SimTime t, int head_cyl, std::int64_t start_sector,
                             int sector_count) const;

  /// Rotational delay from time t until the start of `sector` (within a
  /// track) passes under the head.
  double rotational_latency(SimTime t, int sector) const;

  void start_next();
  void begin_service(Pending p);
  void schedule_rmw_write(OpRef<Pending> p, SimTime service_start,
                          SimTime transfer_start, int sector_count,
                          int end_cylinder, int min_revolutions,
                          SimTime earliest);
  void complete(const Pending& p, SimTime service_start, SimTime end_time,
                int end_cylinder);

  EventQueue& eq_;
  DiskGeometry geometry_;
  const SeekModel* seek_;
  int id_;
  Tracer* tracer_ = nullptr;
  int obs_array_ = -1;
  bool busy_ = false;
  int head_cylinder_ = 0;
  std::uint64_t next_seq_ = 0;
  DiskScheduling scheduling_;
  bool scan_upward_ = true;  // SCAN sweep direction
  std::vector<Pending> queue_;    // cold: requests + bookkeeping
  std::vector<QueueKey> qkeys_;   // hot: parallel scheduling keys
  DiskStats stats_;
  FaultEvaluator fault_evaluator_;
  SlowdownHook slowdown_hook_;
  LatencyRecorder op_latency_;
  double ewma_latency_ms_ = 0.0;
  std::unordered_set<std::int64_t> bad_blocks_;

  // Power-loss support: the epoch invalidates completions scheduled
  // before a power_fail(); the active-op bookkeeping locates the head
  // within an in-flight write when the lights go out.
  std::uint64_t power_epoch_ = 0;
  bool powered_off_ = false;
  OpRef<Pending> active_;
  SimTime active_write_start_ = -1.0;  // < 0: no write phase under way
  SimTime active_write_end_ = -1.0;
};

}  // namespace raidsim
