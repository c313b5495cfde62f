#pragma once

#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "runner/sweep_runner.hpp"
#include "util/table.hpp"

namespace raidsim::bench {

/// Options shared by every reproduction bench.
///
///   --scale1=<f>   fraction of trace 1 to replay (default 0.2)
///   --scale2=<f>   fraction of trace 2 to replay (default 1.0)
///   --full         replay both traces in full
///   --seed=<n>     override the workload RNG seed
///   --quick        replay trace 1 at 0.05 and trace 2 at 0.25, whatever
///                  the bench's defaults (smoke runs)
///   --threads=<n>  sweep worker threads (default: hardware concurrency)
///   --shards=<n>   run every simulation on n per-array-group event
///                  kernels (0 = one kernel streaming the trace)
///   --shard-threads=<n>  threads per sharded run (0 = min(shards, hw))
///   --trace-out=<prefix>      trace every run; job i of a sweep writes
///                             `<prefix>_<i>.trace.json`
///   --sample-interval-ms=<t>  with --trace-out: also sample telemetry
///                             every t ms into `<prefix>_<i>.timeseries.csv`
///   --verbose      print per-run kernel event counts
struct BenchOptions {
  double scale1 = 0.2;
  double scale2 = 1.0;
  std::uint64_t seed = 0;
  int threads = 0;  // 0 = hardware_concurrency
  int shards = 0;         // SimulationConfig::shards of each simulation
  int shard_threads = 0;  // 0 = min(shards, hardware concurrency)
  std::string trace_out;
  double sample_interval_ms = 0.0;
  bool verbose = false;

  /// Parse argv over per-bench defaults (heavier sweeps ship smaller
  /// default scales so the whole suite stays fast). Numbers must parse
  /// whole; an unknown option or a bad number throws
  /// std::invalid_argument naming it.
  static BenchOptions parse(int argc, char** argv, BenchOptions defaults);

  WorkloadOptions workload_options(const std::string& trace,
                                   double speed = 1.0) const;

  /// `config` with the engine selection (--shards/--shard-threads)
  /// applied.
  SimulationConfig engine_config(SimulationConfig config) const;
};

/// BenchOptions::parse for a bench's main: an option error prints
/// `<program>: <message>` on stderr and exits 2.
BenchOptions parse_or_exit(int argc, char** argv, BenchOptions defaults = {});

/// Where a function point (Sweep::add(label, run)) writes its trace, as
/// a traced config point's job does: `prefix` is `<--trace-out>_<i>`,
/// empty when the sweep is not traced.
struct PointTrace {
  std::string prefix;
  double sample_interval_ms = 0.0;

  /// `config` with tracing (and telemetry sampling) turned on when the
  /// point is traced; unchanged otherwise.
  SimulationConfig apply(SimulationConfig config) const;
  /// Points `sim`'s run artifacts at `prefix` when the point is traced.
  void attach(Simulator& sim) const;
};

/// Deferred-execution sweep over simulation points. A bench queues every
/// (config, trace) point up front, then reads results back by the index
/// add() returned; the first result() call runs the whole batch across
/// options.threads workers (SweepRunner), so tables print byte-identically
/// at any thread count. A point equal to one already queued (same
/// job_canonical_key) shares its run.
class Sweep {
 public:
  explicit Sweep(const BenchOptions& options);

  /// Queue one point; returns its index into result().
  std::size_t add(const SimulationConfig& config, const std::string& trace,
                  double speed = 1.0);

  /// Queue a point that is not one of the paper's workloads (`run` builds
  /// its own trace and simulator, traced as its PointTrace says); never
  /// shared with another point.
  std::size_t add(std::string label,
                  std::function<Metrics(const PointTrace&)> run);

  /// Result of the i-th add(). Runs the batch on first call.
  const Metrics& result(std::size_t i);

 private:
  /// Trace destination of the point queued next.
  PointTrace next_trace() const;

  BenchOptions options_;
  SweepRunner runner_;
  std::map<std::string, std::size_t> queued_;  // job key -> index
  std::vector<SweepResult> results_;
  bool ran_ = false;
};

/// Standard bench banner: what is being reproduced and at what scale.
/// Also derives the slug used for data export (see below).
void banner(const std::string& experiment, const std::string& paper_claim,
            const BenchOptions& options);

/// Render a response-time table: one row per x value, one column pair per
/// series, for both traces.
struct Series {
  std::string name;
  std::vector<double> values;  // one per x
};
/// Prints the ASCII table; additionally, when the RAIDSIM_DATA_DIR
/// environment variable names a directory, writes the same series as
/// `<dir>/<experiment-slug>_<trace>.csv` for plotting.
void print_series_table(const std::string& x_name,
                        const std::vector<std::string>& x_values,
                        const std::string& trace_name,
                        const std::vector<Series>& series,
                        const std::string& value_name = "response (ms)");

}  // namespace raidsim::bench
