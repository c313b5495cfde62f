#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/tracer.hpp"
#include "sim/cancellation.hpp"
#include "sim/progress.hpp"
#include "svc/job.hpp"
#include "svc/job_queue.hpp"
#include "svc/result_cache.hpp"

namespace raidsim::svc {

/// Job supervisor: the robustness core of the what-if service.
///
///  - Admission control: a bounded queue; a full queue is a synchronous
///    typed kOverloaded rejection, never a blocked producer.
///  - One way to stop a job: every early stop is an expiry on the job's
///    CancelToken, which the engines poll at event-batch boundaries and
///    the worker checks once at pickup. The request deadline is set at
///    admission, the stuck-job guard (`stuck_job_ms`) at pickup, and the
///    drain budget on every job running or picked up after drain starts.
///  - One attempt per job: a run is a pure function of its request, so
///    a job that throws is reported kFailed, never re-run.
///  - Result cache: canonical-key LRU serving byte-identical metrics.
///  - One count per service event: every `raidsim_svc_*` series lives in
///    the supervisor's own registry, and the `stats` and `metrics` ops
///    both render it.
///  - Drain: close the queue, let queued and in-flight work finish
///    inside the drain budget, and cancel the rest. Every admitted job
///    still completes with a typed terminal status.
///
/// The completion callback is invoked exactly once per submit() -- on
/// the caller's thread for synchronous outcomes (invalid, overloaded,
/// draining, cache hit) and on a worker thread otherwise. Callbacks
/// must be thread-safe and must not call back into the Supervisor.
class Supervisor {
 public:
  struct Options {
    int workers = 2;
    std::size_t queue_capacity = 8;
    std::size_t cache_capacity = 128;
    /// > 0: cancel jobs running longer than this (the stuck-job guard).
    double stuck_job_ms = 0.0;
    /// Drain: how long to let in-flight + queued work finish before
    /// their tokens expire.
    double drain_budget_ms = 5000.0;
    /// Record service-level spans (job-queue / job-run) and instants.
    bool tracing = false;
    /// Minimum wall-clock spacing between progress frames per job (the
    /// engines observe every 4096 events; the wire does not need to).
    double progress_interval_ms = 50.0;
    /// Non-empty: flight recorder. Every job traces into a small ring
    /// (`flight_events` capacity) and abnormal terminations (deadline,
    /// watchdog, shutdown cancel, a run that threw) dump it as a
    /// Chrome-trace artifact under this directory; the result's
    /// `flight_out` carries the path.
    std::string flight_dir{};
    std::size_t flight_events = 4096;
  };

  using Completion = std::function<void(const JobResult&)>;
  using Progress = std::function<void(const JobProgress&)>;

  explicit Supervisor(Options options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Submit one job. The completion always fires exactly once. A
  /// non-null `progress` receives throttled JobProgress frames while the
  /// simulation runs (from the worker or shard threads -- must be
  /// thread-safe); all frames precede the completion.
  void submit(JobRequest request, Completion done, Progress progress);
  void submit(JobRequest request, Completion done) {
    submit(std::move(request), std::move(done), nullptr);
  }

  /// Count and answer a request that fails validation: one submitted,
  /// one invalid, and `done` fires with a kInvalid result carrying
  /// `error`. submit() calls it for a config that does not validate; the
  /// server calls it for a `run` line the codec rejects.
  void reject_invalid(const std::string& error, const Completion& done);

  /// Stop admitting, finish or cancel everything, join the workers.
  /// Idempotent; also run by the destructor.
  void drain();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// The service's counts, each a series of registry(). Every admission
  /// decision and terminal job state increments exactly one outcome
  /// counter, so submitted == terminal() + rejected() whenever the
  /// service is idle -- the overload drill asserts it.
  struct Counters {
    explicit Counters(MetricsRegistry& registry);

    Counter& submitted;
    Counter& ok;
    Counter& cached;  // subset of ok: served from the result cache
    Counter& overloaded;
    Counter& draining;
    Counter& invalid;
    Counter& failed;
    Counter& cancelled;
    Counter& deadline;
    /// Jobs that ended on the stuck-job guard (`stuck_job_ms`).
    Counter& watchdog_kills;
    Counter& cache_misses;
    Counter& progress_frames;
    Counter& flight_dumps;
    Gauge& queue_depth;
    Gauge& inflight;
    HistogramMetric& queue_ms;
    HistogramMetric& run_ms;

    /// Terminal completions of admitted jobs (every admitted job reaches
    /// exactly one of these).
    std::uint64_t terminal() const {
      return ok.value() + failed.value() + cancelled.value() +
             deadline.value();
    }
    std::uint64_t rejected() const {
      return overloaded.value() + draining.value() + invalid.value();
    }
  };

  /// The `stats` op object, rendered from counters() plus the live
  /// queue, worker and cache state.
  std::string stats_json() const;

  const Counters& counters() const { return counters_; }
  /// Registry of every `raidsim_svc_*` series (the `metrics` op scrapes
  /// it after the process registry). Its kill switch is its own: the
  /// process registry's set_enabled() does not reach it.
  MetricsRegistry& registry() { return registry_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t running() const;

  /// Service-level tracer (null unless Options::tracing). Single
  /// consumer only once the service is drained.
  const Tracer* tracer() const { return tracer_.get(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Job {
    JobRequest request;
    Completion done;
    Progress progress;        // null = no frames
    std::string key;          // canonical cache key
    std::uint64_t fingerprint = 0;
    /// Process-unique admission number; keeps flight artifacts of
    /// concurrent identical requests (same fingerprint) from colliding.
    std::uint64_t seq = 0;
    CancelToken token;        // stable address for the engines
    Clock::time_point admitted{};
    Clock::time_point started{};
    /// Throttle state for progress frames, nanoseconds since the
    /// supervisor epoch; CAS-claimed so concurrent shard boundaries emit
    /// at most one frame per interval.
    std::atomic<std::int64_t> last_frame_ns{-1};
    std::uint64_t queue_span = 0;
    std::uint64_t run_span = 0;
  };
  using JobPtr = std::shared_ptr<Job>;

  void worker_loop();
  void run_job(const JobPtr& job);
  /// Status and error of a job its token stopped; `queued`: at pickup.
  void stopped(JobResult& result, CancelReason reason, bool queued);
  void complete(const JobPtr& job, JobResult result);
  /// Engine snapshot -> throttled JobProgress frame.
  void on_engine_progress(const JobPtr& job, const ProgressSnapshot& snap);
  /// Flight artifact prefix for a job (empty = disabled).
  std::string flight_prefix(const JobPtr& job) const;

  double now_ms() const;
  std::uint64_t span_begin(ObsPhase phase, int track);
  void span_end(std::uint64_t id, ObsPhase phase, int track);
  void span_instant(ObsPhase phase, int track);

  Options opts_;
  MetricsRegistry registry_;
  Counters counters_{registry_};
  std::atomic<std::uint64_t> peak_queue_depth_{0};
  ResultCache cache_;
  BoundedQueue<JobPtr> queue_;

  mutable std::mutex running_mu_;
  std::vector<JobPtr> running_;
  /// Set by drain(); guarded by running_mu_ so that each job is either
  /// in running_ when drain sets it or sees it at pickup.
  std::optional<Clock::time_point> drain_end_;

  std::unique_ptr<Tracer> tracer_;
  std::mutex tracer_mu_;
  Clock::time_point epoch_;

  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> job_seq_{0};

  std::vector<std::thread> workers_;
};

}  // namespace raidsim::svc
