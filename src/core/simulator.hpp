#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
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
class StrandedRequestsError : public std::logic_error {
 public:
  explicit StrandedRequestsError(std::uint64_t stranded)
      : std::logic_error("simulation drained with " +
                         std::to_string(stranded) +
                         " host request(s) never completed"),
        stranded_(stranded) {}

  /// Host requests submitted but never completed.
  std::uint64_t stranded() const { return stranded_; }

 private:
  std::uint64_t stranded_;
};

/// Top-level trace-driven simulator. Partitions the traced database's
/// original data disks into arrays of N (Section 3.2's equal-capacity
/// comparison), builds one controller + channel + disks per array, and
/// replays a trace through them.
class Simulator {
 public:
  Simulator(const SimulationConfig& config, const TraceGeometry& geometry);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Replay the whole trace and return aggregate metrics. May be called
  /// once per Simulator instance. Throws StrandedRequestsError when the
  /// queue drains with host requests still outstanding.
  Metrics run(TraceStream& trace);

  /// External driving (closed-loop workloads, failure drills): submit one
  /// request at the current simulation time. The completion is recorded
  /// in the run metrics and `on_complete` (optional) fires with it.
  /// Drive the event queue via event_queue().step() and finish with
  /// drain_and_finalize() instead of run().
  void submit(const TraceRecord& record,
              std::function<void(SimTime)> on_complete = nullptr);

  /// End an externally driven run: stop periodic background processes,
  /// drain the remaining events, and build the metrics.
  Metrics drain_and_finalize();

  int arrays() const { return static_cast<int>(controllers_.size()); }
  int total_disks() const;
  const ArrayController& controller(int array) const {
    return *controllers_[static_cast<std::size_t>(array)];
  }
  /// Mutable access for failure injection and rebuild orchestration
  /// (fail_disk, RebuildProcess) before or during a run.
  ArrayController& mutable_controller(int array) {
    return *controllers_[static_cast<std::size_t>(array)];
  }
  /// The simulation clock/queue, for co-scheduling background processes
  /// (e.g. RebuildProcess) with the trace replay.
  EventQueue& event_queue() { return eq_; }

  /// Map a database block to (array index, array-local logical block).
  std::pair<int, std::int64_t> route(std::int64_t db_block) const;

  /// Attach a cooperative cancellation token. run() polls it every
  /// kCancelCheckBatch executed events and throws CancelledError when it
  /// fires; in-flight state is reclaimed by normal destruction. Must be
  /// set before run() and outlive the run.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }

  /// Events executed between cancellation checks. Small enough that a
  /// deadline lands within a few milliseconds of wall time, large enough
  /// that the relaxed atomic load never shows up in a profile.
  static constexpr std::uint64_t kCancelCheckBatch = 4096;

  /// Attach a progress observer fired every kCancelCheckBatch executed
  /// events (plus one final snapshot after the run completes). Must be
  /// set before run(). Passive: hooked runs stay bit-identical to
  /// unhooked ones.
  void set_progress_hook(ProgressFn hook) { progress_ = std::move(hook); }

  /// Request-lifecycle tracer, null unless config.obs.tracing.
  const Tracer* tracer() const { return tracer_.get(); }
  /// Periodic telemetry sampler, null unless config.obs.sample_interval_ms > 0.
  const TimeSeriesSampler* sampler() const { return sampler_.get(); }

 private:
  void pump(TraceStream& trace);
  /// Single bounds check shared by the pump and submit paths.
  void validate_record(const TraceRecord& record) const;
  void dispatch(const TraceRecord& record,
                std::function<void(SimTime)> on_complete = nullptr);
  void maybe_shutdown();
  Metrics finalize();
  void schedule_sample_tick();
  void take_sample();
  void emit_progress(bool final_frame);

  SimulationConfig config_;
  TraceGeometry geometry_;
  // Routing state precomputed from config + geometry so the per-request
  // path does a single divide instead of two divide/modulo pairs.
  std::int64_t blocks_per_array_ = 1;
  std::int64_t total_blocks_ = 0;
  EventQueue eq_;
  const CancelToken* cancel_ = nullptr;
  ProgressFn progress_;
  std::uint64_t progress_total_ = 0;   // trace size hint for the hook
  std::uint64_t metered_events_ = 0;   // events already fed to the registry
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  EventId sampler_event_ = 0;
  std::vector<std::unique_ptr<ArrayController>> controllers_;
  Metrics metrics_;
  double arrival_time_ = 0.0;
  std::uint64_t outstanding_ = 0;
  bool trace_done_ = false;
  bool ran_ = false;
  /// Cleared for streams whose records were bounds-checked at conversion
  /// time (TraceStream::prevalidated), removing the per-record check from
  /// the replay hot path. submit() always validates.
  bool validate_records_ = true;
};

/// Convenience: build a simulator for `config` and replay `trace`.
Metrics run_simulation(const SimulationConfig& config, TraceStream& trace);

}  // namespace raidsim
