#include "runner/sweep_runner.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "core/simulator.hpp"

namespace raidsim {

Metrics run_sweep_job(const SweepJob& job) {
  auto stream = make_workload(job.trace, job.workload);
  const bool want_trace = !job.trace_out.empty();
  const bool want_flight = !job.flight_out.empty();

  SimulationConfig config = job.config;
  if (want_trace) {
    config.obs.tracing = true;
    if (job.sample_interval_ms > 0.0)
      config.obs.sample_interval_ms = job.sample_interval_ms;
  } else if (want_flight) {
    // Flight recorder: trace into a small ring; only dumped if the run
    // unwinds. Tracing is passive, so metrics stay bit-identical.
    config.obs.tracing = true;
    config.obs.max_trace_events = std::max<std::size_t>(64, job.flight_events);
  }

  Simulator simulator(config, stream->geometry());
  if (want_trace) simulator.set_artifact_prefix(job.trace_out);
  if (job.cancel) simulator.set_cancel_token(job.cancel);
  if (job.progress) simulator.set_progress_hook(job.progress);
  try {
    return simulator.run(*stream);
  } catch (...) {
    if (want_flight) simulator.dump_flight(job.flight_out);
    throw;
  }
}

SweepRunner::SweepRunner(int threads) : threads_(threads) {
  if (threads_ <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = hw ? static_cast<int>(hw) : 1;
  }
}

std::size_t SweepRunner::submit(SweepJob job) {
  std::string label = job.label;
  return submit(std::move(label),
                [job = std::move(job)] { return run_sweep_job(job); });
}

std::size_t SweepRunner::submit(std::string label,
                                std::function<Metrics()> fn) {
  jobs_.push_back(QueuedJob{std::move(label), std::move(fn)});
  return jobs_.size() - 1;
}

std::vector<SweepResult> SweepRunner::run_all() { return run_impl(false); }

std::vector<SweepResult> SweepRunner::run_all_isolated() {
  return run_impl(true);
}

std::vector<SweepResult> SweepRunner::run_impl(bool isolate_failures) {
  std::vector<QueuedJob> jobs = std::move(jobs_);
  jobs_.clear();

  std::vector<SweepResult> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    results[i].label = jobs[i].label;

  // Indexed results make merge order independent of completion order.
  std::mutex queue_mutex;
  std::size_t next = 0;
  auto worker = [&] {
    for (;;) {
      std::size_t index;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        if (next >= jobs.size()) return;
        index = next++;
      }
      try {
        results[index].metrics = jobs[index].fn();
      } catch (...) {
        errors[index] = std::current_exception();
      }
    }
  };

  const std::size_t pool = std::min<std::size_t>(
      static_cast<std::size_t>(threads_), jobs.size());
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  if (isolate_failures) {
    // Per-job failure isolation: surviving jobs keep their submission
    // index and bit-identical metrics; a failed one reports its own
    // error without taking the sweep down.
    for (std::size_t i = 0; i < errors.size(); ++i) {
      if (!errors[i]) continue;
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::exception& e) {
        results[i].error = e.what();
      } catch (...) {
        results[i].error = "unknown exception";
      }
      if (results[i].error.empty()) results[i].error = "unknown error";
    }
    return results;
  }

  for (auto& error : errors)
    if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace raidsim
