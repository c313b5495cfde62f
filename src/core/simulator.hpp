#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "sim/cancellation.hpp"
#include "sim/event_queue.hpp"
#include "sim/progress.hpp"
#include "trace/record.hpp"

namespace raidsim {

/// Thrown when a run drains its event queue while host requests are still
/// outstanding: some request lost its completion (a dropped op handle, a
/// gate that never opens, a crash nobody restarted). Checked in release
/// builds too, so a stranded run never returns plausible-looking metrics.
/// Names the lowest-index array still holding requests, so the error is
/// the same at every shard and thread count.
class StrandedRequestsError : public std::logic_error {
 public:
  StrandedRequestsError(std::uint64_t stranded, int array,
                        std::uint64_t array_stranded)
      : std::logic_error("simulation drained with " +
                         std::to_string(stranded) +
                         " host request(s) never completed; array " +
                         std::to_string(array) + " holds " +
                         std::to_string(array_stranded)),
        stranded_(stranded),
        array_(array),
        array_stranded_(array_stranded) {}

  /// Host requests submitted but never completed, over every array.
  std::uint64_t stranded() const { return stranded_; }
  /// Lowest global index of an array with stranded requests.
  int array() const { return array_; }
  /// Stranded requests of that array.
  std::uint64_t array_stranded() const { return array_stranded_; }

 private:
  std::uint64_t stranded_;
  int array_;
  std::uint64_t array_stranded_;
};

/// Top-level trace-driven simulator. Partitions the traced database's
/// original data disks into arrays of N (Section 3.2's equal-capacity
/// comparison), builds one controller + channel + disks per array, and
/// replays a trace through them.
///
/// Arrays share no simulated state -- each owns its disks, channel,
/// buffer pool and NV cache; the host only routes each request to one
/// array -- so a run splits by array without approximation. The arrays
/// are packed into shards, each with its own EventQueue, Tracer and
/// TimeSeriesSampler: array a belongs to shard a % S. `config.shards`
/// picks S: one shard at 0, min(shards, arrays) at >= 1, run on a pool
/// of `config.shard_threads` workers.
///
/// One windowed feed serves every shard count. run() alternates two
/// phases. The reader, on the calling thread, pulls the next 4 K records
/// per shard in global order, sums their arrival times in that order,
/// and routes each into its shard's window. Then every unfinished shard
/// runs on the pool until it needs the reader again and parks:
///
///  * its window is empty while the trace is not done. The kernel stops
///    right after the current callback, and the next arrival is
///    scheduled after the refill, with the sequence number it would have
///    taken inside that callback;
///  * one of its arrays is undecided: per-array quiescence only, the
///    array's routed-but-unanswered count fell to zero before the trace
///    was done. After the refill the array has new records (that was not
///    its last response) or the trace is done (it was, and its destage
///    timer stops) before the shard runs another event. An array the
///    trace never touches stays undecided, and its shard parked, until
///    the trace is done.
///
/// So the feed holds about one window while every array keeps receiving
/// traffic; a shard with an idle array buffers its other arrays' records
/// until the array is decided. Outputs are bit-identical to replaying
/// the whole trace at once. What a replay's memory cannot go below is
/// the trace generator's own LRU-stack state, ~117 MB for full trace 1.
///
/// Each array records its own responses, merged into the run totals in
/// global array order; elapsed_ms is the max over shard clocks and
/// utilizations are taken against it. At a fixed `shards >= 1` results
/// are bit-identical at any shard and thread count; `shards = 0` differs
/// from them only in when destage timers stop (see
/// per_array_quiescence_). events_executed is summed over shards.
class Simulator {
 public:
  Simulator(const SimulationConfig& config, const TraceGeometry& geometry);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Replay the whole trace and return aggregate metrics. May be called
  /// once per Simulator instance. Throws StrandedRequestsError when host
  /// requests remain outstanding once nothing is left that could
  /// complete them.
  Metrics run(TraceStream& trace);

  /// External driving (closed-loop workloads, failure drills): submit one
  /// request at the current simulation time. The completion is recorded
  /// in the run metrics and `on_complete` (optional) fires with it.
  /// Drive the event queue via event_queue().step() and finish with
  /// drain_and_finalize() instead of run(). `shards = 0` only; throws
  /// std::logic_error otherwise.
  void submit(const TraceRecord& record,
              std::function<void(SimTime)> on_complete = nullptr);

  /// End an externally driven run: stop periodic background processes,
  /// drain the remaining events, and build the metrics. `shards = 0`
  /// only; throws std::logic_error otherwise, and StrandedRequestsError
  /// (as run() does) when submitted requests can no longer complete.
  Metrics drain_and_finalize();

  int arrays() const { return static_cast<int>(controllers_.size()); }
  int total_disks() const;
  /// Event kernels the arrays are packed into.
  int shards() const { return static_cast<int>(shards_.size()); }

  const ArrayController& controller(int array) const {
    return *controllers_[static_cast<std::size_t>(array)];
  }
  /// Mutable access for failure injection and rebuild orchestration
  /// (fail_disk, RebuildProcess) before or during a run.
  ArrayController& mutable_controller(int array) {
    return *controllers_[static_cast<std::size_t>(array)];
  }
  /// The clock/queue of array `array`'s shard, for co-scheduling
  /// background processes (e.g. RebuildProcess) with the trace replay.
  EventQueue& event_queue(int array = 0);

  /// Map a database block to (array index, array-local logical block).
  std::pair<int, std::int64_t> route(std::int64_t db_block) const;

  /// Attach a cooperative cancellation token shared by every shard. Each
  /// shard polls it every kCancelCheckBatch executed events; when it
  /// fires the run unwinds with CancelledError once every worker has
  /// stopped, and in-flight state is reclaimed by normal destruction.
  /// Must be set before run() and outlive the run.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Events executed between cancellation checks. Small enough that a
  /// deadline lands within a few milliseconds of wall time, large enough
  /// that the relaxed atomic load never shows up in a profile.
  static constexpr std::uint64_t kCancelCheckBatch = 4096;

  /// Attach a progress observer. Each shard publishes its event count,
  /// clock and completed-request tally at its cancel-poll boundary; the
  /// shard that crosses a boundary aggregates them (sum of events/done,
  /// max of clocks) and fires the hook -- serialized by a try-lock so a
  /// congested hook is skipped, never queued. One final snapshot follows
  /// a successful run. Snapshots are monotone. Must be set before run().
  /// Passive: hooked runs stay bit-identical to unhooked ones.
  void set_progress_hook(ProgressFn hook) { progress_ = std::move(hook); }

  /// Non-empty: after run(), export each shard's artifacts (requires
  /// config.obs.tracing for trace JSON; sample_interval_ms > 0 adds the
  /// timeseries) under `prefix` at `shards = 0` and `<prefix>_shard<k>`
  /// otherwise. At a fixed shard count the files are byte-identical at
  /// any thread count.
  void set_artifact_prefix(std::string prefix) {
    artifact_prefix_ = std::move(prefix);
  }

  /// Flight-recorder dump: write each shard's tracing ring to
  /// `<prefix>.trace.json` (per-shard names as above) right now (best
  /// effort, I/O errors swallowed). Used by run_sweep_job when a recorded
  /// job unwinds, so the artifact exists even though run() threw.
  void dump_flight(const std::string& prefix) const;

  /// Shard 0's request-lifecycle tracer, null unless config.obs.tracing.
  const Tracer* tracer() const;
  /// Shard 0's telemetry sampler, null unless
  /// config.obs.sample_interval_ms > 0.
  const TimeSeriesSampler* sampler() const;

 private:
  struct ArrayState;
  struct Shard;
  struct FeedRecord;
  /// Reader state of the feed during run().
  struct Feed {
    double arrival = 0.0;       // arrival-time prefix sum, global order
    std::uint64_t records = 0;  // records read so far
  };

  ArrayState& array_state(int array);
  std::string artifact_prefix(const std::string& prefix,
                              std::size_t shard) const;
  /// Single bounds check shared by the feed and submit paths.
  void validate_record(const TraceRecord& record) const;
  /// Reader: drop each window's dispatched records and route the next
  /// window of records from `trace`; sets feed_done_ at its end.
  void refill(TraceStream& trace, Feed& feed);
  /// Stop the shard's kernel after the current callback until the next
  /// refill.
  void park(Shard& shard);
  /// Decide the shard's undecided arrays after a refill. False while one
  /// stays undecided: the shard must not run yet.
  bool settle(Shard& shard);
  /// Schedule the shard's next arrival, or park when its window is empty
  /// and the trace is not done.
  void pump(Shard& shard);
  void end_feed(Shard& shard);
  void dispatch(ArrayState& array, std::int64_t local_block,
                int block_count, bool is_write,
                std::function<void(SimTime)> on_complete);
  /// Stop the shard's periodic machinery (destage and sampler timers).
  void quiesce(Shard& shard);
  /// Trace exhausted, host requests outstanding, and no array of the
  /// shard holds work that could complete them.
  bool stranded(const Shard& shard) const;
  void schedule_sample_tick(Shard& shard);
  void take_sample(Shard& shard);
  /// One epoch of one shard: settle, pump if the arrival is pending, and
  /// drain until it parks or finishes.
  void run_shard(Shard& shard);
  /// Run every unfinished shard on the pool until each parks or finishes;
  /// rethrows the first failure by shard order.
  void run_epoch();
  /// Run the shard's queue in batches until it parks or drains, polling
  /// cancellation and progress between batches and stopping the
  /// periodic timers once the shard is stranded.
  void drain(Shard& shard);
  /// Throw StrandedRequestsError when any host request is outstanding.
  void check_stranded();
  void publish(Shard& shard);
  void maybe_emit_progress(bool final_frame);
  Metrics finalize();

  SimulationConfig config_;
  TraceGeometry geometry_;
  // Routing state precomputed from config + geometry so the per-request
  // path does a single divide instead of two divide/modulo pairs.
  std::int64_t blocks_per_array_ = 1;
  std::int64_t total_blocks_ = 0;
  /// When an array's destage timer stops. false (shards = 0): every
  /// array stops at run quiescence, when the last host request of the
  /// run completes. true (shards >= 1): each array stops at its own last
  /// response, so its trajectory depends on its own request stream only
  /// and results are identical at any shard count. The two differ only
  /// in the destage tail (destage writes, disk accesses, events,
  /// elapsed_ms), and the benchmark fingerprints pin both. The feed is
  /// the same under both rules; only per-array quiescence parks a shard
  /// on an undecided array.
  bool per_array_quiescence_ = false;
  int thread_count_ = 1;
  const CancelToken* cancel_ = nullptr;
  ProgressFn progress_;
  std::mutex progress_mu_;
  std::uint64_t progress_total_ = 0;  // trace size for the hook
  std::string artifact_prefix_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global array order; declared after shards_ so controllers (which
  /// hold op handles into their shard's arena) are destroyed first.
  std::vector<std::unique_ptr<ArrayController>> controllers_;
  /// The reader has reached the end of the trace. Written only between
  /// epochs, while no shard runs.
  bool feed_done_ = false;
  bool ran_ = false;
  /// Cleared for streams whose records were bounds-checked at conversion
  /// time (TraceStream::prevalidated), removing the per-record check from
  /// the replay hot path. submit() always validates.
  bool validate_records_ = true;
};

/// Convenience: build a simulator for `config` and replay `trace`.
Metrics run_simulation(const SimulationConfig& config, TraceStream& trace);

}  // namespace raidsim
