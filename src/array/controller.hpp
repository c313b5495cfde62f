#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "array/crash_hooks.hpp"
#include "array/intent_journal.hpp"
#include "cache/nv_cache.hpp"
#include "channel/channel.hpp"
#include "disk/disk.hpp"
#include "layout/layout.hpp"
#include "sim/event_queue.hpp"
#include "sim/small_function.hpp"
#include "util/arena.hpp"
#include "util/inline_vec.hpp"

namespace raidsim {

/// Synchronization policies between the parity access and the data
/// access(es) of an update (Section 3.3).
enum class SyncPolicy {
  kSimultaneousIssue,      // SI
  kReadFirst,              // RF
  kReadFirstPriority,      // RF/PR
  kDiskFirst,              // DF (paper default, Table 4)
  kDiskFirstPriority,      // DF/PR
};

std::string to_string(SyncPolicy policy);

/// One request addressed to a single array (array-local logical blocks).
struct ArrayRequest {
  std::int64_t logical_block = 0;
  int block_count = 1;
  bool is_write = false;
  /// Tracer span id of the host request this serves (0 = untraced);
  /// cache hit/miss markers attach to it.
  std::uint64_t obs_id = 0;
};

/// Countdown latch: fires its callback (once) when `remaining` arrivals
/// have occurred. Created with the full count; a zero count fires on
/// creation.
class Barrier {
  /// Pass-key: the constructor must be reachable by make_op (so barriers
  /// come from the engine's op arena) without letting other code bypass
  /// create().
  struct Key {
    explicit Key() = default;
  };

 public:
  /// Fire callbacks hold the continuation of a whole parity-update plan
  /// (a done std::function plus captured extents/covers), so they get
  /// wider inline storage than the default; anything that still
  /// overflows falls back to one heap allocation, like std::function.
  using Fire = SmallFunction<void(SimTime), 128>;

  /// Allocated against the engine's op arena (always the eq_.op_arena()
  /// of the controller issuing the plan).
  static OpRef<Barrier> create(OpArena& arena, int count, Fire fire);

  Barrier(Key, int count, Fire fire)
      : remaining_(count), fire_(std::move(fire)) {}

  void arrive(SimTime now);
  /// Add expected arrivals before any arrive() call brings it to zero.
  void expect(int more) { remaining_ += more; }
  int remaining() const { return remaining_; }

 private:
  int remaining_;
  Fire fire_;
};

/// Controller-level counters common to all array controllers.
struct ControllerStats {
  std::uint64_t read_requests = 0;
  std::uint64_t write_requests = 0;
  // Cached controllers only: request-level hit accounting (a multiblock
  // request counts as a hit only when every block is cached).
  std::uint64_t read_request_hits = 0;
  std::uint64_t write_request_hits = 0;
  std::uint64_t destage_writes = 0;       // destage disk writes issued
  std::uint64_t destage_blocks = 0;       // dirty blocks destaged
  std::uint64_t sync_victim_writes = 0;   // dirty LRU victims written inline
  std::uint64_t write_stalls = 0;         // writes delayed by a full cache
  std::uint64_t parity_spools = 0;        // RAID4 parity updates written
  std::uint64_t parity_reservation_failures = 0;
  std::size_t parity_queue_peak = 0;
  // Degraded-mode accounting (disk failure support).
  std::uint64_t degraded_reads = 0;    // reads reconstructed from the group
  std::uint64_t degraded_writes = 0;   // writes applied without the failed disk
  std::uint64_t unrecoverable = 0;     // accesses lost (no redundancy)
  // Fault-handling accounting (transient retry + media repair paths).
  std::uint64_t transient_retries = 0;   // ops re-queued after a timeout
  std::uint64_t retry_exhaustions = 0;   // ops whose retry budget ran out
  std::uint64_t media_errors = 0;        // latent sector errors hit by reads
  std::uint64_t media_repairs = 0;       // reconstruct-and-rewrite remaps
  std::uint64_t media_losses = 0;        // media errors with no redundancy
  // Crash & recovery accounting (power-loss injection support).
  std::uint64_t crashes = 0;                      // crash_halt() invocations
  std::uint64_t crash_dropped_ops = 0;            // disk ops killed by crashes
  std::uint64_t crash_discarded_write_blocks = 0; // write blocks never landing
  std::uint64_t crash_aborted_host_writes = 0;    // stalled hosts dropped
  std::uint64_t journal_intents = 0;     // stripe-update intents opened
  std::uint64_t journal_replays = 0;     // intents replayed by recovery
  std::uint64_t resync_stripes = 0;      // stripes resynchronized
  std::uint64_t resync_read_blocks = 0;  // blocks read by resync passes
  std::uint64_t resync_write_blocks = 0; // parity blocks rewritten by resync
  std::uint64_t full_resyncs = 0;        // recoveries that walked the array
  double recovery_ms = 0.0;              // cumulative recovery wall time
  // Tail-tolerance accounting (fail-slow mitigation policies).
  std::uint64_t timeouts_fired = 0;      // read deadlines that expired
  std::uint64_t hedged_reads = 0;        // speculative second reads issued
  std::uint64_t hedge_wins = 0;          // hedges that beat the primary
  std::uint64_t hedge_cancellations = 0; // losing legs (wasted disk work)
  std::uint64_t redirected_reads = 0;    // mirror reads steered off a slow disk
  std::uint64_t quarantine_reroutes = 0; // reads routed around a quarantine

  double read_hit_ratio() const {
    return read_requests ? static_cast<double>(read_request_hits) /
                               static_cast<double>(read_requests)
                         : 0.0;
  }
  double write_hit_ratio() const {
    return write_requests ? static_cast<double>(write_request_hits) /
                                static_cast<double>(write_requests)
                          : 0.0;
  }
};

/// Shared substrate of the uncached and cached controllers: the disks,
/// the channel, the track-buffer pool, the layout, and the machinery to
/// execute read plans and parity-group update plans with a given
/// synchronization policy.
class ArrayController {
 public:
  /// Transient-error handling policy: a timed-out op is re-queued with
  /// exponential backoff (backoff doubles per attempt) until the budget
  /// is exhausted, at which point the disk is declared dead.
  struct FaultPolicy {
    int retry_budget = 3;
    double retry_backoff_ms = 5.0;
  };

  /// Tail-tolerance policy for demand reads under fail-slow disks. All
  /// mechanisms are off by default; `enabled` gates the whole machinery
  /// so policy-off runs issue exactly the same events as before.
  struct TailPolicy {
    bool enabled = false;
    /// Deadline for a demand read; when it expires before the read
    /// completes the controller counts a timeout and escalates by
    /// forcing the hedge (redundant second copy) immediately. 0 = off.
    double read_deadline_ms = 0.0;
    /// Fixed floor of the hedge delay: a speculative second read of the
    /// redundant copy is issued this long after the primary. 0 = no
    /// hedging (deadline escalation can still fire one).
    double hedge_delay_ms = 0.0;
    /// > 0: adaptive hedge delay = max(hedge_delay_ms, factor * EWMA of
    /// the primary disk's per-op latency) -- hedges adapt to how slow
    /// the disk actually is instead of a static guess.
    double hedge_ewma_factor = 0.0;
    /// Mirror organizations: steer a read to the twin when the
    /// seek-preferred member's latency EWMA exceeds `slow_ewma_factor`
    /// times the twin's (redirect-on-slow).
    bool redirect_on_slow = false;
    /// Parity organizations: allow hedges/quarantine reroutes to
    /// reconstruct-read around the slow disk via the degraded-read path.
    bool reconstruct_on_slow = false;
    /// Slowness ratio used by redirect-on-slow and by the parity
    /// reconstruct gate (hedge only when the primary's EWMA exceeds
    /// this multiple of the array median -- a reconstruct fans out to
    /// every other member, so firing it for a healthy-but-queued
    /// primary floods the array instead of trimming the tail).
    double slow_ewma_factor = 3.0;
  };

  struct Config {
    LayoutConfig layout;
    DiskGeometry disk_geometry;
    SeekSpec seek;
    SyncPolicy sync = SyncPolicy::kDiskFirst;
    DiskScheduling disk_scheduling = DiskScheduling::kFifo;
    double channel_mb_per_second = 10.0;
    int track_buffers_per_disk = 5;
    FaultPolicy fault;
    TailPolicy tail;
    /// Request-lifecycle tracer (null = tracing off) and the index of
    /// this array within the simulator, used as the trace process id.
    Tracer* tracer = nullptr;
    int array_index = -1;
  };

  ArrayController(EventQueue& eq, const Config& config);
  virtual ~ArrayController() = default;

  ArrayController(const ArrayController&) = delete;
  ArrayController& operator=(const ArrayController&) = delete;

  /// Submit a request at the current simulation time; `on_complete` fires
  /// when the response is delivered to the host.
  virtual void submit(const ArrayRequest& request,
                      Completion on_complete) = 0;

  /// Stop periodic background machinery (e.g. the cached controller's
  /// destage timer) once the workload has fully drained; in-flight work
  /// still completes. No-op for controllers without background timers.
  virtual void shutdown() {}

  /// True while the array holds work that can still complete a host
  /// request: a queued or in-service disk op, a busy channel, or a
  /// transient-error retry waiting out its backoff (the cached
  /// controller adds its dirty, destaging, spooled and stalled state).
  /// An array without any of it can only tick its periodic timers.
  virtual bool holds_work() const;

  /// NV-cache statistics, or nullptr for controllers without a cache.
  virtual const NvCache::Stats* cache_stats() const { return nullptr; }

  /// The NV cache itself (time-series sampler hook), or nullptr.
  virtual const NvCache* nv_cache() const { return nullptr; }

  /// Mark one disk as failed: reads targeting it are reconstructed from
  /// the surviving members of its parity group (or the mirror twin);
  /// writes maintain the surviving data and parity only. Pass -1 to
  /// clear (disk repaired/rebuilt). Only single failures are modelled --
  /// a second failure in the same parity group would lose data.
  void fail_disk(int disk);
  int failed_disk() const { return failed_disk_; }

  /// Online-rebuild watermark: physical blocks of the failed disk below
  /// this bound have already been reconstructed onto the replacement and
  /// are served normally again.
  void set_rebuild_watermark(std::int64_t blocks);
  std::int64_t rebuild_watermark() const { return rebuild_watermark_; }

  /// Rebuild support: reconstruct one extent of the failed disk from the
  /// surviving members of its parity group (or the mirror twin) and
  /// write it to the replacement. `done` fires when the replacement
  /// write completes. Returns false when the organization has no
  /// redundancy to rebuild from.
  bool rebuild_extent(const PhysicalExtent& extent, DiskPriority priority,
                      Completion done);

  /// Patrol-read one extent through the fault-aware read path
  /// (ScrubProcess): a latent sector error it hits is repaired in place
  /// by repair_media_error, and a degraded extent is reconstructed.
  void scrub_extent(const PhysicalExtent& extent, DiskPriority priority,
                    Completion done) {
    disk_read(extent, priority, std::move(done));
  }

  /// Repair a latent sector error in place: reconstruct the extent from
  /// the surviving members of its parity group (or the mirror twin) and
  /// rewrite it on its own disk, remapping the bad sectors. Without
  /// redundancy the data are lost (counted) and the blocks remapped
  /// empty. A second latent error in the same parity group, hit by a
  /// reconstruction read, is a double fault: that block is counted lost
  /// the same way and the repair completes. `done` fires when the
  /// rewrite (or loss accounting) is done.
  void repair_media_error(const PhysicalExtent& extent, DiskPriority priority,
                          Completion done);

  /// Invoked when a disk exhausts its transient-retry budget and is
  /// declared dead. The handler owns the reaction (typically a
  /// HealthMonitor marking the failure and orchestrating recovery);
  /// without one the controller marks the disk failed itself when no
  /// other failure is outstanding.
  void set_disk_dead_handler(std::function<void(int disk, SimTime)> handler) {
    disk_dead_handler_ = std::move(handler);
  }

  const FaultPolicy& fault_policy() const { return fault_; }
  const TailPolicy& tail_policy() const { return tail_; }

  /// Quarantine support (slow-disk containment, driven by the
  /// HealthMonitor's detector): a quarantined disk receives no new
  /// demand reads -- mirror reads prefer the twin, parity reads are
  /// reconstructed around it when the tail policy allows -- but keeps
  /// serving writes and background I/O so it can be observed recovering.
  void set_quarantined(int disk, bool quarantined);
  bool is_quarantined(int disk) const {
    return disk >= 0 && static_cast<std::size_t>(disk) < quarantined_.size() &&
           quarantined_[static_cast<std::size_t>(disk)] != 0;
  }
  int quarantined_count() const;

  // ---------------------------------------------- crash & recovery API

  /// Attach a shadow-model integrity auditor (src/crash). Pure
  /// bookkeeping: hooks fire on every step of a logical write's life and
  /// consume no simulated time. Null detaches.
  void set_auditor(WriteAuditHooks* auditor) { auditor_ = auditor; }
  WriteAuditHooks* auditor() const { return auditor_; }

  /// Attach an NVRAM intent journal (write-hole closure); the cached
  /// controller owns one internally when CacheConfig::intent_journal is
  /// set, but a caller may also attach an external journal to either
  /// controller. Null detaches.
  void attach_journal(IntentJournal* journal) { journal_ = journal; }
  IntentJournal* journal() const { return journal_; }

  /// Controller crash at the current instant: every disk loses power
  /// (queued + in-flight ops die; partial writes keep only their durable
  /// prefix), further submissions are refused, and the journal (if any)
  /// survives or is wiped per `preserve_nvram`. Host requests in flight
  /// never complete -- the crash ate them.
  virtual void crash_halt(bool preserve_nvram);

  /// Power the controller back up (disks spin up empty-queued). Recovery
  /// -- journal replay or full resync -- is driven externally by a
  /// RecoveryProcess; the controller serves I/O immediately, as a real
  /// array does while its background resync runs.
  virtual void crash_restart();
  bool crashed() const { return crashed_; }

  /// Resynchronize the parity group(s) covering one data extent: read
  /// the extent and its surviving group members, recompute the parity,
  /// rewrite it, and mark the auditor's shadow model consistent. Returns
  /// the I/O cost. `ok == false` means the organization has no parity
  /// group here (nothing to resync); `done` still fires.
  struct ResyncIssue {
    bool ok = false;
    int read_blocks = 0;
    int write_blocks = 0;
  };
  ResyncIssue resync_stripe(const PhysicalExtent& extent,
                            DiskPriority priority,
                            Completion done);

  /// Recovery bookkeeping callback (RecoveryProcess reports here).
  void note_recovery(double ms, std::uint64_t intents_replayed, bool full);

  const Layout& layout() const { return *layout_; }
  const std::vector<std::unique_ptr<Disk>>& disks() const { return disks_; }
  const Channel& channel() const { return *channel_; }
  const BufferPool& buffers() const { return *buffers_; }
  const ControllerStats& stats() const { return stats_; }
  const SeekModel& seek_model() const { return seek_model_; }

 protected:
  /// Choose which member of a mirrored pair serves a read: the disk whose
  /// arm is nearest the target cylinder, breaking ties by queue length
  /// (the paper's shortest-seek optimisation). Tail policies overlay
  /// quarantine avoidance and redirect-on-slow (EWMA comparison) on top;
  /// non-const because redirects are counted and traced.
  int choose_mirror_read_disk(const PhysicalExtent& extent);

  /// Demand-read entry point with tail-tolerance: behaves exactly like
  /// disk_read when the tail policy is disabled; otherwise overlays
  /// quarantine rerouting, an optional deadline (timeout accounting +
  /// hedge escalation), and optional hedged reads (speculative redundant
  /// copy after an adaptive delay, first completion wins).
  void tail_read(const PhysicalExtent& extent, DiskPriority priority,
                 Completion done);

  /// True when a redundant alternative exists for reading `extent`
  /// without touching extent.disk: a healthy mirror twin, or (when the
  /// tail policy allows reconstruct-on-slow) an intact parity group.
  bool alternate_read_available(const PhysicalExtent& extent) const;
  /// True when `disk`'s latency EWMA exceeds slow_ewma_factor times the
  /// median EWMA of the array's warm, non-failed disks.
  bool ewma_slow(int disk) const;

  /// Issue that alternative (twin read or parity reconstruction).
  /// Returns false -- issuing nothing -- when none is available; `done`
  /// is consumed (moved from) only on success, so a failed attempt
  /// leaves it intact for the caller's fallback path.
  bool issue_alternate_read(const PhysicalExtent& extent,
                            DiskPriority priority,
                            Completion& done);

  /// True when `extent` must be served in degraded mode (on the failed
  /// disk, above the rebuild watermark).
  bool is_degraded(const PhysicalExtent& extent) const;

  /// Issue a plain read of `extent`; `done` fires when the data are in
  /// the controller (before any channel transfer). Extents on the failed
  /// disk are transparently reconstructed from the surviving members of
  /// their parity group. A `repair_read` serves repair_media_error's
  /// reconstruction: a latent error it hits in a group that holds
  /// another is a double fault, counted as a loss instead of repaired.
  void disk_read(const PhysicalExtent& extent, DiskPriority priority,
                 Completion done, bool repair_read = false);

  /// Issue a plain write of `extent`; `done` fires when it is on disk.
  /// `on_power_fail` (optional) is invoked instead when a crash kills the
  /// write, with the durable leading-block count. `phase` tags the
  /// tracer span (kAuto = write-data).
  void disk_write(const PhysicalExtent& extent, DiskPriority priority,
                  Completion done,
                  PowerFail on_power_fail = nullptr,
                  ObsPhase phase = ObsPhase::kAuto);

  /// Execute one parity-group update plan under the configured sync
  /// policy (the parity access priority is raised for the /PR policies).
  /// A data piece whose old content old_data_cached() reports is written
  /// plainly and the parity gate does not wait for it. `done` fires once
  /// every access of the plan has completed.
  void execute_update(const StripeUpdate& update, Completion done);

  /// True when the old content of a data extent is already in the
  /// controller (cached organizations retain old blocks), so updating
  /// its parity needs no old-data read. The base controller keeps none.
  virtual bool old_data_cached(const PhysicalExtent& /*extent*/) const {
    return false;
  }

  /// Split an extent at cylinder boundaries (RMW accesses must not cross
  /// a cylinder).
  ExtentList split_at_cylinders(
      const PhysicalExtent& extent) const;

  std::int64_t block_bytes(int blocks) const {
    return static_cast<std::int64_t>(blocks) * disk_geometry_.block_bytes();
  }

  // ------------------------------------------------------ plan steps
  // Every plan shape (small-write RMW, the sync policies, RAID4 parity
  // caching, degraded and repair reads) is assembled from these.

  /// Read every surviving member of `groups` and then its parity, group
  /// by group; `done` fires once all of them are in the controller.
  /// `repair_read` marks them as a media repair's reconstruction reads
  /// (see disk_read).
  void read_groups(const std::vector<Layout::DegradedGroup>& groups,
                   DiskPriority priority, Barrier::Fire done,
                   bool repair_read = false);

  /// Record the stripe-update intent of `update` in the attached journal
  /// before any of its disk I/O is issued. Returns a barrier expecting
  /// `arrivals` that retires the intent, or null when nothing was
  /// recorded (no journal, a crashed controller, or no parity to keep in
  /// step with the data).
  OpRef<Barrier> open_intent(const StripeUpdate& update, int arrivals);

  /// The data accesses of a small-write plan: its writes split at
  /// cylinder boundaries, each flagged when old_data_cached() holds for
  /// it.
  struct DataPieces {
    ExtentList extents;
    InlineVec<char, 16> old_cached;  // per extent
    int reads = 0;  // extents whose old data an RMW pass must read
  };
  /// `old_data_known == false` flags every piece uncached without asking.
  DataPieces data_pieces(const ExtentList& writes, bool old_data_known) const;

  /// Issue one disk access per data piece at normal priority: a plain
  /// write when its old content is cached, otherwise a read-modify-write
  /// (its write gate pre-opened: the new data are already here) whose
  /// read phase arrives at `read_barrier`. `start_barrier` (DF only, may
  /// be null) hears each access acquire its disk, `completion` each one
  /// land. Each access is wrapped in the audit tap.
  void issue_rmw_data(const DataPieces& pieces,
                      const OpRef<Barrier>& read_barrier,
                      const OpRef<Barrier>& start_barrier,
                      const OpRef<Barrier>& completion);

  /// Build the parity-cover records for the data pieces of an update:
  /// which generation each block's parity delta was computed against
  /// (the retained old copy for cached pieces, the on-disk content for
  /// pieces whose old data the RMW pass reads). Empty without an auditor.
  std::vector<ParityCover> parity_covers(const DataPieces& pieces) const;

  /// Rewrite an update plan for single-failure operation: writes to the
  /// failed disk are dropped and replaced by a reconstruct-style parity
  /// update over the surviving members; a failed parity disk simply
  /// stops being maintained.
  StripeUpdate degrade_update(const StripeUpdate& update);

  void execute_update_impl(const StripeUpdate& update, Completion done);

  /// True when a latent-error block of `extent` shares its parity group
  /// with another latent-error block, so neither can be reconstructed.
  bool shares_group_with_media_error(const PhysicalExtent& extent) const;

  /// Fault-aware submission of a plain read/write: installs the
  /// transient-retry and media-repair handlers around the disk op.
  void submit_op(const PhysicalExtent& extent, bool is_write,
                 DiskPriority priority, Completion done,
                 int attempt,
                 PowerFail on_power_fail = nullptr,
                 ObsPhase phase = ObsPhase::kAuto,
                 bool repair_read = false);

  /// Audit instrumentation for one data-write extent: the returned
  /// callbacks wrap the disk op so the auditor learns exactly which
  /// blocks became durable -- all of them on completion, the leading
  /// prefix on a mid-write power failure. Generations are sampled at
  /// issue time (the content being written NOW, not whatever the host
  /// writes later). No-ops when no auditor is attached.
  struct AuditTap {
    Completion on_complete;
    PowerFail on_power_fail;
  };
  AuditTap audit_data_write(const PhysicalExtent& extent,
                            Completion inner);

  void handle_retry_exhaustion(const PhysicalExtent& extent, bool is_write,
                               DiskPriority priority,
                               Completion done, SimTime now);

  EventQueue& eq_;
  DiskGeometry disk_geometry_;
  SeekModel seek_model_;
  std::unique_ptr<Layout> layout_;
  std::vector<std::unique_ptr<Disk>> disks_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<BufferPool> buffers_;
  SyncPolicy sync_;
  ControllerStats stats_;
  FaultPolicy fault_;
  TailPolicy tail_;
  std::vector<char> quarantined_;  // per-disk quarantine flags
  Tracer* tracer_ = nullptr;
  int array_index_ = -1;
  std::function<void(int, SimTime)> disk_dead_handler_;
  int failed_disk_ = -1;
  std::int64_t rebuild_watermark_ = 0;
  int retries_pending_ = 0;  // transient retries waiting out a backoff
  WriteAuditHooks* auditor_ = nullptr;
  IntentJournal* journal_ = nullptr;
  bool crashed_ = false;
};

}  // namespace raidsim
