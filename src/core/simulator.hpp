#pragma once

#include <cstddef>
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
/// One windowed feed serves every shard count. The reader, on the calling
/// thread, pulls the next kWindowPerShard records per shard in global
/// order, sums their arrival times in that order, and routes each into its
/// shard's staged window. run() then alternates commits and epochs. A
/// commit, between epochs while no shard runs, hands the staged windows to
/// the shards. In an epoch every unfinished shard runs until it needs the
/// reader again and parks, while the reader reads the window after it:
/// at `shards >= 1` the shards run on a pool of `config.shard_threads`
/// helper threads and the calling thread reads alongside them; at
/// `shards = 0` the one shard runs inline and the read follows it. A
/// shard parks when:
///
///  * its window is empty while the trace is not done. The kernel stops
///    right after the current callback, and the next arrival is
///    scheduled after the commit, with the sequence number it would have
///    taken inside that callback;
///  * one of its arrays is undecided: per-array quiescence only, the
///    array's routed-but-unanswered count fell to zero before the trace
///    was done. After the commit the array has new records (that was not
///    its last response) or the trace is done (it was, and its destage
///    timer stops) before the shard runs another event. An array the
///    trace never touches stays undecided, and its shard parked, until
///    the trace is done.
///
/// Each epoch starts from the shard state that reading the window between
/// the epochs would give: only when records are generated moves, so the
/// read-ahead changes no output. After an epoch a shard's failure is
/// rethrown first, by shard order, then the reader's, the order a
/// read-after-epoch loop meets them in. The trace is only ever read on the
/// thread that called run().
///
/// So the feed holds about two windows while every array keeps receiving
/// traffic; a shard with an idle array buffers its other arrays' records
/// until the array is decided. Outputs are bit-identical to replaying
/// the whole trace at once. What a replay's memory cannot go below is
/// the trace generator's own LRU-stack state, ~37 MB for full trace 1.
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

  /// Records the reader routes per read, per shard: 128 KB of window a
  /// shard (32 bytes a record), 53 K records a read for the 13 arrays of
  /// trace 1. Small enough that a one-shard run's footprint barely moves,
  /// large enough that epochs -- one pool launch and at most one park per
  /// shard each -- stay few.
  static constexpr std::size_t kWindowPerShard = 4096;

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
  struct Feed;

  ArrayState& array_state(int array);
  std::string artifact_prefix(const std::string& prefix,
                              std::size_t shard) const;
  /// Single record check (extent in bounds, finite non-negative delta)
  /// shared by the feed and submit paths; throws std::out_of_range.
  void validate_record(const TraceRecord& record) const;
  /// The read: route the next window of records from `trace` into the
  /// feed's staged windows and counts, marking the feed done at the end of
  /// the trace. Touches only `feed`, so it runs while the shards do.
  void refill(TraceStream& trace, Feed& feed);
  /// Between epochs, while no shard runs: drop each window's dispatched
  /// records, hand it the staged ones, add the staged counts to
  /// `remaining`, and publish feed_done_ and progress_total_.
  void commit(Feed& feed);
  /// Stop the shard's kernel after the current callback until the next
  /// commit.
  void park(Shard& shard);
  /// Decide the shard's undecided arrays after a commit. False while one
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
  /// Run every unfinished shard until each parks or finishes and, unless
  /// the feed is done, read the next window meanwhile: the shards on
  /// thread_count_ helper threads and the read on the calling thread, or,
  /// when thread_count_ is 0, the shard inline and then the read. Once all
  /// have stopped, rethrows the first shard failure by shard order, then
  /// the read's.
  void run_epoch(TraceStream& trace, Feed& feed);
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
  /// Helper threads an epoch runs on; 0 at shards = 0, where it runs
  /// inline on the calling thread.
  int thread_count_ = 0;
  const CancelToken* cancel_ = nullptr;
  ProgressFn progress_;
  std::mutex progress_mu_;
  /// Trace size for the hook: the size hint, then the record count once
  /// a commit ends the feed. Never written while a shard runs.
  std::uint64_t progress_total_ = 0;
  std::string artifact_prefix_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Global array order; declared after shards_ so controllers (which
  /// hold op handles into their shard's arena) are destroyed first.
  std::vector<std::unique_ptr<ArrayController>> controllers_;
  /// The reader has reached the end of the trace, as of the last commit.
  /// Written only by a commit, while no shard runs.
  bool feed_done_ = false;
  bool ran_ = false;
};

/// Convenience: build a simulator for `config` and replay `trace`.
Metrics run_simulation(const SimulationConfig& config, TraceStream& trace);

}  // namespace raidsim
