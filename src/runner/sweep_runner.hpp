#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/workloads.hpp"
#include "sim/cancellation.hpp"
#include "sim/progress.hpp"

namespace raidsim {

/// One point of a parameter sweep: a fully independent simulation,
/// described by value so a worker thread can build its own workload
/// stream (own RNG state) and its own Simulator (own event queue).
struct SweepJob {
  SimulationConfig config;
  std::string trace;          // workload name: "trace1" or "trace2"
  WorkloadOptions workload;   // scale / speed / seed for this point
  std::string label;          // carried through to the result
  /// Non-empty: trace this job and export `<trace_out>.trace.json` (and,
  /// with sample_interval_ms > 0, `<trace_out>.timeseries.csv`) when it
  /// finishes. Parallel sweep jobs each own their tracer and write to
  /// their own prefix, so no cross-thread state exists.
  std::string trace_out;
  double sample_interval_ms = 0.0;
  /// Non-null: the run polls this token at event-batch boundaries and
  /// unwinds with CancelledError when it fires (service deadlines,
  /// watchdogs, drains). Must outlive the run.
  const CancelToken* cancel = nullptr;
  /// Non-null: progress snapshots fired at the same batch boundaries
  /// (streamed job progress, CLI heartbeats). Must be thread-safe for
  /// sharded configs; passive -- results stay bit-identical.
  ProgressFn progress;
  /// Non-empty: flight recorder. The run traces into a small ring
  /// (`flight_events` capacity) and, if it unwinds -- cancellation,
  /// deadline, any exception -- the ring is dumped to
  /// `<flight_out>.trace.json` (sharded: `<flight_out>_shard<k>...`)
  /// before the exception propagates, so postmortems need no
  /// pre-arranged trace_out. No-op when tracing is compiled out.
  std::string flight_out;
  std::size_t flight_events = 4096;
};

struct SweepResult {
  std::string label;
  Metrics metrics;
  /// run_all_isolated() only: non-empty when this job threw instead of
  /// producing metrics. run_all() never returns errored results (it
  /// rethrows), so `ok()` is trivially true there.
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Shards independent simulation jobs across a worker pool and hands the
/// results back in submission order, so sweep output is byte-identical
/// regardless of thread count. Jobs share nothing: each worker
/// instantiates its own TraceStream and Simulator, and the pool hands
/// out work through a lock-guarded queue.
///
/// Usage:
///   SweepRunner runner(threads);           // 0 = hardware_concurrency
///   runner.submit({config, "trace1", wo, "N=10"});
///   auto results = runner.run_all();       // results[i] <-> i-th submit
class SweepRunner {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit SweepRunner(int threads = 0);

  /// Queue one simulation point. Returns its index into run_all()'s
  /// result vector.
  std::size_t submit(SweepJob job);

  /// Escape hatch for work that is not a plain trace replay (closed-loop
  /// drivers, custom drains). `fn` runs on a worker thread and must not
  /// touch shared mutable state.
  std::size_t submit(std::string label, std::function<Metrics()> fn);

  /// Run every queued job and return the results in submission order.
  /// Clears the queue; the runner can be reused for another batch. If a
  /// job throws, the first exception (by submission order) is rethrown
  /// after all workers have stopped.
  std::vector<SweepResult> run_all();

  /// Like run_all(), but a throwing job never aborts the sweep: its
  /// result carries the exception text in `error` (metrics default) and
  /// every other job still runs and lands at its submission index. A
  /// poisoned config in a thousand-point sweep costs one point, not the
  /// sweep.
  std::vector<SweepResult> run_all_isolated();

  int threads() const { return threads_; }
  std::size_t queued() const { return jobs_.size(); }

 private:
  struct QueuedJob {
    std::string label;
    std::function<Metrics()> fn;
  };

  std::vector<SweepResult> run_impl(bool isolate_failures);

  int threads_;
  std::vector<QueuedJob> jobs_;
};

/// Run one sweep job to completion on the calling thread.
Metrics run_sweep_job(const SweepJob& job);

}  // namespace raidsim
