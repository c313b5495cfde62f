#include "svc/supervisor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

namespace raidsim::svc {
namespace {

JobRequest tiny_job(std::uint64_t seed, double scale = 0.02) {
  JobRequest job;
  job.trace = "trace2";
  job.workload.scale = scale;
  job.workload.seed = seed;
  return job;
}

/// Full trace 1: several seconds uncancelled in a Release build (full
/// trace 2 takes ~0.1 s), so a cancellation bound of a second or two
/// fails if the token does not stop the run.
JobRequest long_job(std::uint64_t seed) {
  JobRequest job = tiny_job(seed, 1.0);
  job.trace = "trace1";
  job.no_cache = true;
  return job;
}

JobResult submit_and_wait(Supervisor& sup, JobRequest job) {
  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();
  sup.submit(std::move(job),
             [&promise](const JobResult& r) { promise.set_value(r); });
  return future.get();
}

TEST(Supervisor, RunsAJobToOk) {
  Supervisor sup({.workers = 1, .queue_capacity = 2});
  const JobResult r = submit_and_wait(sup, tiny_job(1));
  EXPECT_EQ(r.status, JobStatus::kOk);
  EXPECT_FALSE(r.metrics_json.empty());
  EXPECT_FALSE(r.cached);
  EXPECT_NE(r.fingerprint, 0u);
}

TEST(Supervisor, InvalidConfigIsTypedAndSynchronous) {
  Supervisor sup({.workers = 1, .queue_capacity = 2});
  JobRequest bad = tiny_job(1);
  bad.config.array_data_disks = 0;
  const JobResult r = submit_and_wait(sup, std::move(bad));
  EXPECT_EQ(r.status, JobStatus::kInvalid);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(sup.counters().invalid.value(), 1u);
}

TEST(Supervisor, OverloadShedsWithTypedRejection) {
  // 1 worker + 1 queue slot; a burst of slower jobs must shed the rest
  // synchronously as kOverloaded -- never block or drop.
  Supervisor sup({.workers = 1, .queue_capacity = 1});
  constexpr int kJobs = 8;
  std::vector<std::future<JobResult>> futures;
  std::vector<std::promise<JobResult>> promises(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(promises[i].get_future());
    JobRequest job = tiny_job(100 + i, 0.05);
    job.no_cache = true;
    sup.submit(std::move(job), [&promises, i](const JobResult& r) {
      promises[i].set_value(r);
    });
  }
  int ok = 0, overloaded = 0;
  for (auto& f : futures) {
    const JobResult r = f.get();
    if (r.status == JobStatus::kOk) ++ok;
    else if (r.status == JobStatus::kOverloaded) ++overloaded;
    else ADD_FAILURE() << "unexpected status " << to_string(r.status);
  }
  EXPECT_EQ(ok + overloaded, kJobs);
  EXPECT_GE(overloaded, kJobs - 2 - 1);  // at most worker+queue+1 admitted
  EXPECT_GT(overloaded, 0);
  EXPECT_EQ(sup.counters().overloaded.value(),
            static_cast<std::uint64_t>(overloaded));
}

TEST(Supervisor, CacheHitIsByteIdenticalToFreshRun) {
  Supervisor sup({.workers = 1, .queue_capacity = 2});
  JobRequest fresh = tiny_job(7);
  fresh.no_cache = true;  // bypass lookup; still stores
  const JobResult first = submit_and_wait(sup, fresh);
  ASSERT_EQ(first.status, JobStatus::kOk);

  const JobResult hit = submit_and_wait(sup, tiny_job(7));
  ASSERT_EQ(hit.status, JobStatus::kOk);
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.metrics_json, first.metrics_json);  // byte identity
  EXPECT_EQ(sup.counters().cached.value(), 1u);

  // A different seed is a different key: no false sharing.
  const JobResult other = submit_and_wait(sup, tiny_job(8));
  ASSERT_EQ(other.status, JobStatus::kOk);
  EXPECT_FALSE(other.cached);
  EXPECT_NE(other.fingerprint, hit.fingerprint);
}

TEST(Supervisor, DeadlineCancelsMidRun) {
  Supervisor sup({.workers = 1, .queue_capacity = 2});
  JobRequest job = long_job(9);
  job.deadline_ms = 30.0;
  const auto t0 = std::chrono::steady_clock::now();
  const JobResult r = submit_and_wait(sup, std::move(job));
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_EQ(r.status, JobStatus::kDeadline);
  EXPECT_LT(ms, 2000.0);  // cancelled promptly, not at completion
  EXPECT_EQ(sup.counters().deadline.value(), 1u);
}

TEST(Supervisor, QueuedJobPastDeadlineNeverRuns) {
  Supervisor sup({.workers = 1, .queue_capacity = 2});
  // Occupy the only worker, then queue a job whose deadline expires
  // while it waits: it must be skipped at pickup, never run.
  std::promise<JobResult> slow_promise;
  JobRequest slow = tiny_job(10, 0.1);
  slow.no_cache = true;
  sup.submit(std::move(slow), [&slow_promise](const JobResult& r) {
    slow_promise.set_value(r);
  });
  JobRequest queued = tiny_job(11);
  queued.deadline_ms = 1.0;
  queued.no_cache = true;
  const JobResult r = submit_and_wait(sup, std::move(queued));
  EXPECT_EQ(r.status, JobStatus::kDeadline);
  EXPECT_EQ(r.error, "deadline expired while queued");
  slow_promise.get_future().wait();
}

TEST(Supervisor, WatchdogCancelsStuckJob) {
  Supervisor sup({.workers = 1, .queue_capacity = 2, .stuck_job_ms = 25.0});
  JobRequest job = tiny_job(15, 1.0);  // runs far longer than 25 ms
  job.no_cache = true;
  const JobResult r = submit_and_wait(sup, std::move(job));
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_NE(r.error.find("watchdog"), std::string::npos);
  EXPECT_EQ(sup.counters().watchdog_kills.value(), 1u);
}

TEST(Supervisor, DrainCompletesEverythingTyped) {
  Supervisor sup({.workers = 2, .queue_capacity = 4,
                  .drain_budget_ms = 30000.0});
  constexpr int kJobs = 6;
  std::vector<std::promise<JobResult>> promises(kJobs);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < kJobs; ++i) {
    futures.push_back(promises[i].get_future());
    JobRequest job = tiny_job(200 + i);
    job.no_cache = true;
    sup.submit(std::move(job), [&promises, i](const JobResult& r) {
      promises[i].set_value(r);
    });
  }
  sup.drain();
  // Every admitted job reached a typed terminal state by drain's end.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    const JobResult r = f.get();
    EXPECT_TRUE(r.status == JobStatus::kOk ||
                r.status == JobStatus::kOverloaded ||
                r.status == JobStatus::kCancelled)
        << to_string(r.status);
  }
  // After drain, new work gets a typed kDraining.
  const JobResult late = submit_and_wait(sup, tiny_job(999));
  EXPECT_EQ(late.status, JobStatus::kDraining);
  // Taxonomy: submitted == rejections + terminals.
  const Supervisor::Counters& c = sup.counters();
  EXPECT_EQ(c.submitted.value(), c.terminal() + c.rejected());
}

TEST(Supervisor, DrainBudgetCancelsLongJobs) {
  Supervisor sup({.workers = 1, .queue_capacity = 2,
                  .drain_budget_ms = 20.0});
  JobRequest job = long_job(16);
  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();
  sup.submit(std::move(job),
             [&promise](const JobResult& r) { promise.set_value(r); });
  const auto t0 = std::chrono::steady_clock::now();
  sup.drain();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  const JobResult r = future.get();
  EXPECT_EQ(r.status, JobStatus::kCancelled);
  EXPECT_LT(ms, 5000.0);  // budget + one cancellation batch, not the full run
}

TEST(Supervisor, CountsAreExactUnderConcurrentSubmit) {
  // Four threads race admission with a mix of invalid, fresh, repeated
  // (cache-hit) and shed jobs: every submit lands in exactly one outcome
  // counter, and the cache-hit subset matches what callers saw.
  Supervisor sup({.workers = 2, .queue_capacity = 2});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> answered{0};
  std::atomic<int> cached{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sup, &answered, &cached, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JobRequest job = tiny_job(300 + (t * kPerThread + i) % 5, 0.01);
        if (i % 4 == 0) job.trace = "no_such_trace";
        sup.submit(std::move(job), [&answered, &cached](const JobResult& r) {
          if (r.cached) cached.fetch_add(1);
          answered.fetch_add(1);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  sup.drain();  // every admitted job has completed once this returns

  const Supervisor::Counters& c = sup.counters();
  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(answered.load(), static_cast<int>(kTotal));
  EXPECT_EQ(c.submitted.value(), kTotal);
  EXPECT_EQ(c.submitted.value(), c.terminal() + c.rejected());
  EXPECT_EQ(c.invalid.value(), kTotal / 4);
  EXPECT_EQ(c.draining.value(), 0u);
  EXPECT_EQ(c.cached.value(), static_cast<std::uint64_t>(cached.load()));
  EXPECT_LE(c.cached.value(), c.ok.value());
  EXPECT_EQ(c.queue_depth.value(), 0.0);
  EXPECT_EQ(c.inflight.value(), 0.0);
  EXPECT_EQ(c.run_ms.count(), c.terminal() - c.cached.value());
}

}  // namespace
}  // namespace raidsim::svc
