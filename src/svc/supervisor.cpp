#include "svc/supervisor.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "core/job_key.hpp"
#include "runner/sweep_runner.hpp"

namespace raidsim::svc {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::chrono::steady_clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

bool file_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void raise_to(std::atomic<std::uint64_t>& peak, std::uint64_t value) {
  std::uint64_t prev = peak.load(std::memory_order_relaxed);
  while (prev < value &&
         !peak.compare_exchange_weak(prev, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Supervisor::Counters::Counters(MetricsRegistry& r)
    : submitted(r.counter("raidsim_svc_jobs_submitted_total",
                          "Jobs submitted to the supervisor")),
      ok(r.counter("raidsim_svc_jobs_ok_total", "Jobs completed with metrics")),
      cached(r.counter("raidsim_svc_jobs_cached_total",
                       "Jobs served from the result cache")),
      overloaded(r.counter("raidsim_svc_jobs_overloaded_total",
                           "Jobs shed by admission control")),
      draining(r.counter("raidsim_svc_jobs_draining_total",
                         "Jobs rejected while draining")),
      invalid(r.counter("raidsim_svc_jobs_invalid_total",
                        "Jobs rejected by validation")),
      failed(r.counter("raidsim_svc_jobs_failed_total",
                       "Jobs that failed terminally")),
      cancelled(r.counter("raidsim_svc_jobs_cancelled_total",
                          "Jobs cancelled by drain or watchdog")),
      deadline(r.counter("raidsim_svc_jobs_deadline_total",
                         "Jobs that missed their deadline")),
      watchdog_kills(r.counter("raidsim_svc_watchdog_kills_total",
                               "Stuck jobs killed by the watchdog")),
      cache_misses(r.counter("raidsim_svc_cache_misses_total",
                             "Result-cache lookup misses")),
      progress_frames(r.counter("raidsim_svc_progress_frames_total",
                                "Progress frames emitted")),
      flight_dumps(r.counter("raidsim_svc_flight_dumps_total",
                             "Flight-recorder artifacts dumped")),
      queue_depth(r.gauge("raidsim_svc_queue_depth",
                          "Jobs waiting in the admission queue")),
      inflight(r.gauge("raidsim_svc_inflight",
                       "Jobs currently running on workers")),
      queue_ms(r.histogram("raidsim_svc_job_queue_ms",
                           "Wall ms from admission to worker pickup")),
      run_ms(r.histogram("raidsim_svc_job_run_ms",
                         "Wall ms from worker pickup to terminal state")) {}

Supervisor::Supervisor(Options options)
    : opts_(options),
      cache_(options.cache_capacity),
      queue_(std::max<std::size_t>(1, options.queue_capacity)),
      epoch_(Clock::now()) {
  opts_.workers = std::max(1, opts_.workers);
  if (opts_.tracing)
    tracer_ = std::make_unique<Tracer>(Tracer::Config{1u << 16});
  workers_.reserve(static_cast<std::size_t>(opts_.workers));
  for (int i = 0; i < opts_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Supervisor::~Supervisor() { drain(); }

double Supervisor::now_ms() const { return elapsed_ms(epoch_, Clock::now()); }

std::uint64_t Supervisor::span_begin(ObsPhase phase, int track) {
  if (!tracer_) return 0;
  std::lock_guard<std::mutex> lock(tracer_mu_);
  return tracer_->begin(phase, 0, track, now_ms());
}

void Supervisor::span_end(std::uint64_t id, ObsPhase phase, int track) {
  if (!tracer_ || id == 0) return;
  std::lock_guard<std::mutex> lock(tracer_mu_);
  tracer_->end(id, phase, 0, track, now_ms());
}

void Supervisor::span_instant(ObsPhase phase, int track) {
  if (!tracer_) return;
  std::lock_guard<std::mutex> lock(tracer_mu_);
  tracer_->instant(phase, 0, track, now_ms());
}

std::size_t Supervisor::running() const {
  std::lock_guard<std::mutex> lock(running_mu_);
  return running_.size();
}

void Supervisor::reject_invalid(const std::string& error,
                                const Completion& done) {
  counters_.submitted.add(1);
  counters_.invalid.add(1);
  span_instant(ObsPhase::kJobRejected, static_cast<int>(JobStatus::kInvalid));
  JobResult result;
  result.status = JobStatus::kInvalid;
  result.error = error;
  done(result);
}

void Supervisor::submit(JobRequest request, Completion done,
                        Progress progress) {
  // Validate before anything else: a bad config is a typed kInvalid and
  // never reaches the queue (direct API callers bypass the codec's own
  // validation, so revalidate here).
  try {
    request.config.validate();
    if (request.trace != "trace1" && request.trace != "trace2")
      throw std::invalid_argument("unknown trace '" + request.trace + "'");
  } catch (const std::exception& e) {
    reject_invalid(e.what(), done);
    return;
  }
  counters_.submitted.add(1);

  auto reject = [&](JobStatus status, const std::string& error,
                    std::uint64_t fingerprint) {
    JobResult result;
    result.status = status;
    result.error = error;
    result.fingerprint = fingerprint;
    span_instant(ObsPhase::kJobRejected, static_cast<int>(status));
    done(result);
  };

  const std::string key =
      job_canonical_key(request.config, request.trace, request.workload);
  const std::uint64_t fingerprint = fnv1a64(key);

  auto reject_draining = [&] {
    counters_.draining.add(1);
    reject(JobStatus::kDraining, "server is draining", fingerprint);
  };
  if (draining_.load(std::memory_order_acquire)) {
    reject_draining();
    return;
  }

  // Cache hits are served at admission: no queue slot, no worker, and
  // the stored bytes are returned verbatim (byte-identical to the fresh
  // run that produced them).
  if (!request.no_cache) {
    std::string cached_json;
    if (cache_.lookup(key, &cached_json)) {
      JobResult result;
      result.status = JobStatus::kOk;
      result.cached = true;
      result.metrics_json = std::move(cached_json);
      result.fingerprint = fingerprint;
      counters_.ok.add(1);
      counters_.cached.add(1);
      done(result);
      return;
    }
    counters_.cache_misses.add(1);
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(request);
  job->done = std::move(done);
  job->progress = std::move(progress);
  job->key = key;
  job->fingerprint = fingerprint;
  job->seq = job_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  job->admitted = Clock::now();
  if (job->request.deadline_ms > 0.0)
    job->token.expire_at(job->admitted + from_ms(job->request.deadline_ms),
                         CancelReason::kDeadline);
  job->queue_span = span_begin(ObsPhase::kJobQueue, 0);

  // Counted before the push (a worker may pop the job at once) and
  // uncounted at pickup, so the gauge is exact whenever the queue rests.
  counters_.queue_depth.add(1.0);
  if (!queue_.try_push(job)) {
    counters_.queue_depth.add(-1.0);
    span_end(job->queue_span, ObsPhase::kJobQueue, 0);
    done = std::move(job->done);  // the job was never shared
    // Drain closes the queue before anything else, so a closed queue
    // answers draining, never overloaded.
    if (draining_.load(std::memory_order_acquire)) {
      reject_draining();
      return;
    }
    counters_.overloaded.add(1);
    reject(JobStatus::kOverloaded,
           "queue full (" + std::to_string(queue_.capacity()) +
               " jobs); retry later",
           fingerprint);
    return;
  }
  raise_to(peak_queue_depth_, queue_.size());
}

void Supervisor::worker_loop() {
  while (std::optional<JobPtr> job = queue_.pop()) run_job(*job);
}

void Supervisor::run_job(const JobPtr& job) {
  job->started = Clock::now();
  span_end(job->queue_span, ObsPhase::kJobQueue, 0);

  JobResult result;
  result.fingerprint = job->fingerprint;
  result.queue_ms = elapsed_ms(job->admitted, job->started);
  counters_.queue_depth.add(-1.0);
  counters_.queue_ms.observe(result.queue_ms);

  // Jobs that died in the queue never burn a simulation.
  bool expired = false;
  {
    std::lock_guard<std::mutex> lock(running_mu_);
    if (drain_end_)
      job->token.expire_at(*drain_end_, CancelReason::kShutdown);
    expired = job->token.cancelled();
    if (!expired) running_.push_back(job);
  }
  if (expired) {
    stopped(result, job->token.reason(), true);
    complete(job, std::move(result));
    return;
  }
  if (opts_.stuck_job_ms > 0.0)
    job->token.expire_at(job->started + from_ms(opts_.stuck_job_ms),
                         CancelReason::kWatchdog);
  counters_.inflight.add(1.0);
  job->run_span = span_begin(ObsPhase::kJobRun, 0);

  std::string flight;  // artifact prefix, empty when the recorder is off
  try {
    SweepJob sweep;
    sweep.config = job->request.config;
    sweep.trace = job->request.trace;
    sweep.workload = job->request.workload;
    sweep.cancel = &job->token;
    if (job->progress) {
      JobPtr self = job;
      sweep.progress = [this, self](const ProgressSnapshot& snap) {
        on_engine_progress(self, snap);
      };
    }
    if (!opts_.flight_dir.empty()) {
      flight = flight_prefix(job);
      sweep.flight_out = flight;
      sweep.flight_events = opts_.flight_events;
    }
    Metrics metrics = run_sweep_job(sweep);
    std::ostringstream os;
    metrics.to_json(os);
    result.status = JobStatus::kOk;
    result.metrics_json = os.str();
    // Store even when the lookup was bypassed, so a no_cache probe
    // still primes the cache for the byte-identity check.
    cache_.insert(job->key, result.metrics_json);
  } catch (const CancelledError& e) {
    stopped(result, e.reason(), false);
  } catch (const std::exception& e) {
    result.status = JobStatus::kFailed;
    result.error = e.what();
  } catch (...) {
    result.status = JobStatus::kFailed;
    result.error = "unknown exception";
  }

  {
    std::lock_guard<std::mutex> lock(running_mu_);
    running_.erase(std::remove(running_.begin(), running_.end(), job),
                   running_.end());
  }
  counters_.inflight.add(-1.0);

  // Abnormal termination with the flight recorder on: the sweep dumped
  // the span ring before unwinding -- surface the artifact path.
  if (!flight.empty() && result.status != JobStatus::kOk) {
    if (file_exists(flight + ".trace.json"))
      result.flight_out = flight + ".trace.json";
    else if (file_exists(flight + "_shard0.trace.json"))
      result.flight_out = flight + "_shard0.trace.json";
    if (!result.flight_out.empty()) counters_.flight_dumps.add(1);
  }

  span_end(job->run_span, ObsPhase::kJobRun, 0);
  complete(job, std::move(result));
}

void Supervisor::stopped(JobResult& result, CancelReason reason,
                         bool queued) {
  switch (reason) {
    case CancelReason::kDeadline:
      result.status = JobStatus::kDeadline;
      result.error = queued ? "deadline expired while queued"
                            : "deadline expired mid-run";
      span_instant(ObsPhase::kJobDeadline, 0);
      break;
    case CancelReason::kWatchdog:
      result.status = JobStatus::kCancelled;
      result.error = "watchdog cancelled a stuck job";
      counters_.watchdog_kills.add(1);
      span_instant(ObsPhase::kJobWatchdog, 0);
      break;
    default:
      result.status = JobStatus::kCancelled;
      result.error = "cancelled by shutdown drain";
      break;
  }
}

void Supervisor::on_engine_progress(const JobPtr& job,
                                    const ProgressSnapshot& snap) {
  // Throttle: non-final frames claim the next emission slot with a CAS
  // on the last-emitted wall time; losers (concurrent shard boundaries,
  // too-soon batches) drop the frame. Final frames always go out.
  const auto now = Clock::now();
  const std::int64_t now_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
          .count();
  if (!snap.final_frame) {
    const std::int64_t interval_ns = static_cast<std::int64_t>(
        std::max(0.0, opts_.progress_interval_ms) * 1e6);
    std::int64_t last = job->last_frame_ns.load(std::memory_order_relaxed);
    for (;;) {
      if (last >= 0 && now_ns - last < interval_ns) return;
      if (job->last_frame_ns.compare_exchange_weak(last, now_ns,
                                                   std::memory_order_relaxed))
        break;
    }
  } else {
    job->last_frame_ns.store(now_ns, std::memory_order_relaxed);
  }

  JobProgress frame;
  frame.id = job->request.id;
  frame.fingerprint = job->fingerprint;
  frame.events = snap.events;
  frame.sim_ms = snap.sim_ms;
  frame.done = snap.done;
  frame.total = snap.total;
  frame.final_frame = snap.final_frame;
  if (snap.total > 0) {
    const double frac =
        std::min(1.0, static_cast<double>(snap.done) /
                          static_cast<double>(snap.total));
    frame.percent = 100.0 * frac;
    if (snap.done > 0 && snap.done < snap.total) {
      const double wall = elapsed_ms(job->started, now);
      frame.eta_ms = wall * static_cast<double>(snap.total - snap.done) /
                     static_cast<double>(snap.done);
    } else if (snap.done >= snap.total) {
      frame.eta_ms = 0.0;
    }
  }
  counters_.progress_frames.add(1);
  job->progress(frame);
}

std::string Supervisor::flight_prefix(const JobPtr& job) const {
  // The job sequence number keeps concurrent identical requests (same
  // fingerprint, e.g. a no_cache pair) from overwriting each other's
  // artifact.
  char name[96];
  std::snprintf(name, sizeof(name), "/flight_%016llx_j%llu",
                static_cast<unsigned long long>(job->fingerprint),
                static_cast<unsigned long long>(job->seq));
  return opts_.flight_dir + name;
}

void Supervisor::complete(const JobPtr& job, JobResult result) {
  result.run_ms = elapsed_ms(job->started, Clock::now());
  counters_.run_ms.observe(result.run_ms);
  switch (result.status) {
    case JobStatus::kOk:
      counters_.ok.add(1);
      break;
    case JobStatus::kFailed:
      counters_.failed.add(1);
      break;
    case JobStatus::kCancelled:
      counters_.cancelled.add(1);
      break;
    case JobStatus::kDeadline:
      counters_.deadline.add(1);
      break;
    default:
      break;  // rejections are counted at submit()
  }
  job->done(result);
}

void Supervisor::drain() {
  if (draining_.exchange(true, std::memory_order_acq_rel)) return;
  queue_.close();
  // Whatever is still queued or running when the budget runs out stops
  // at its pickup or at its engine's next poll.
  {
    std::lock_guard<std::mutex> lock(running_mu_);
    drain_end_ = Clock::now() + from_ms(std::max(0.0, opts_.drain_budget_ms));
    for (const JobPtr& job : running_)
      job->token.expire_at(*drain_end_, CancelReason::kShutdown);
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

std::string Supervisor::stats_json() const {
  const Counters& c = counters_;
  std::ostringstream os;
  os << "{\"submitted\":" << c.submitted.value()
     << ",\"completed_ok\":" << c.ok.value()
     << ",\"completed_cached\":" << c.cached.value()
     << ",\"rejected_overload\":" << c.overloaded.value()
     << ",\"rejected_draining\":" << c.draining.value()
     << ",\"rejected_invalid\":" << c.invalid.value()
     << ",\"failed\":" << c.failed.value()
     << ",\"cancelled\":" << c.cancelled.value()
     << ",\"deadline_expired\":" << c.deadline.value()
     << ",\"watchdog_kills\":" << c.watchdog_kills.value()
     << ",\"peak_queue_depth\":" << peak_queue_depth_.load()
     << ",\"queue_depth\":" << queue_.size() << ",\"running\":" << running()
     << ",\"cache_size\":" << cache_.size()
     << ",\"cache_hits\":" << c.cached.value()
     << ",\"cache_misses\":" << c.cache_misses.value()
     << ",\"cache_evictions\":" << cache_.evictions() << "}";
  return os.str();
}

}  // namespace raidsim::svc
