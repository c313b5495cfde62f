// Flight-recorder coverage: a job that dies abnormally leaves a
// loadable Chrome-trace artifact behind (deadline through the
// supervisor; direct cancellation at the sweep level), a healthy job
// leaves nothing, and supervisor progress streaming delivers monotone
// frames before the terminal completion.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/tracer.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/cancellation.hpp"
#include "svc/supervisor.hpp"

namespace raidsim::svc {
namespace {

JobRequest big_job(const std::string& id) {
  JobRequest request;
  request.id = id;
  request.trace = "trace2";
  request.workload.scale = 1.0;
  request.no_cache = true;
  return request;
}

JobRequest tiny_job(const std::string& id) {
  JobRequest request;
  request.id = id;
  request.trace = "trace2";
  request.workload.scale = 0.05;
  request.no_cache = true;
  return request;
}

JobResult submit_and_wait(Supervisor& sup, JobRequest request,
                          Supervisor::Progress progress = nullptr) {
  std::promise<JobResult> promise;
  auto future = promise.get_future();
  sup.submit(std::move(request),
             [&promise](const JobResult& r) { promise.set_value(r); },
             std::move(progress));
  return future.get();
}

TEST(FlightRecorder, DeadlineKilledJobDumpsArtifact) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const std::string dir = ::testing::TempDir() + "flight_deadline";
  std::remove(dir.c_str());
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);

  Supervisor sup({.workers = 1,
                  .queue_capacity = 2,
                  .flight_dir = dir});
  JobRequest request = big_job("doomed");
  request.deadline_ms = 25.0;
  const JobResult result = submit_and_wait(sup, std::move(request));

  ASSERT_EQ(result.status, JobStatus::kDeadline) << result.error;
  ASSERT_FALSE(result.flight_out.empty())
      << "abnormal termination must surface the flight artifact";
  std::ifstream in(result.flight_out);
  ASSERT_TRUE(in.good()) << result.flight_out;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\""), std::string::npos)
      << "artifact must be a Chrome trace";
}

TEST(FlightRecorder, ConcurrentIdenticalJobsGetDistinctArtifacts) {
  // Two concurrent no_cache requests with the same fingerprint must not
  // overwrite each other's artifact; the per-job sequence number keys
  // them apart.
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const std::string dir = ::testing::TempDir() + "flight_dup";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);

  Supervisor sup({.workers = 2,
                  .queue_capacity = 4,
                  .flight_dir = dir});
  JobRequest first = big_job("dup-a");
  first.deadline_ms = 25.0;
  JobRequest second = big_job("dup-b");
  second.deadline_ms = 25.0;
  std::promise<JobResult> pa, pb;
  auto fa = pa.get_future();
  auto fb = pb.get_future();
  sup.submit(std::move(first),
             [&pa](const JobResult& r) { pa.set_value(r); });
  sup.submit(std::move(second),
             [&pb](const JobResult& r) { pb.set_value(r); });
  const JobResult ra = fa.get();
  const JobResult rb = fb.get();

  ASSERT_EQ(ra.status, JobStatus::kDeadline) << ra.error;
  ASSERT_EQ(rb.status, JobStatus::kDeadline) << rb.error;
  EXPECT_EQ(ra.fingerprint, rb.fingerprint);  // identical requests
  ASSERT_FALSE(ra.flight_out.empty());
  ASSERT_FALSE(rb.flight_out.empty());
  EXPECT_NE(ra.flight_out, rb.flight_out);
  EXPECT_TRUE(std::ifstream(ra.flight_out).good()) << ra.flight_out;
  EXPECT_TRUE(std::ifstream(rb.flight_out).good()) << rb.flight_out;
}

TEST(FlightRecorder, HealthyJobLeavesNoArtifact) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  const std::string dir = ::testing::TempDir() + "flight_healthy";
  ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);

  Supervisor sup({.workers = 1, .queue_capacity = 2, .flight_dir = dir});
  const JobResult result = submit_and_wait(sup, tiny_job("fine"));
  EXPECT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_TRUE(result.flight_out.empty());
}

TEST(FlightRecorder, SweepLevelCancelDumpsForBothEngines) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  for (int shards : {0, 2}) {
    const std::string prefix = ::testing::TempDir() + "flight_sweep_" +
                               std::to_string(shards);
    CancelToken token;
    SweepJob job;
    job.trace = "trace2";
    job.workload.scale = 1.0;
    job.config.shards = shards;
    job.cancel = &token;
    job.flight_out = prefix;

    std::thread killer([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      token.cancel(CancelReason::kClient);
    });
    EXPECT_THROW(run_sweep_job(job), CancelledError) << "shards=" << shards;
    killer.join();

    const std::string path = shards == 0
                                 ? prefix + ".trace.json"
                                 : prefix + "_shard0.trace.json";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing flight dump " << path;
  }
}

TEST(SupervisorProgress, FramesStreamBeforeCompletionAndAreMonotone) {
  Supervisor sup({.workers = 1,
                  .queue_capacity = 2,
                  .progress_interval_ms = 0.0});  // every engine frame

  std::mutex mu;
  std::vector<JobProgress> frames;
  std::atomic<bool> completed{false};
  std::atomic<bool> frame_after_completion{false};
  const JobResult result = submit_and_wait(
      sup, tiny_job("watched"), [&](const JobProgress& p) {
        if (completed.load()) frame_after_completion.store(true);
        std::lock_guard<std::mutex> lock(mu);
        frames.push_back(p);
      });
  completed.store(true);

  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  EXPECT_FALSE(frame_after_completion.load())
      << "all frames must precede the completion callback";
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(frames.empty());
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_GE(frames[i].events, frames[i - 1].events);
    EXPECT_GE(frames[i].sim_ms, frames[i - 1].sim_ms);
  }
  const JobProgress& last = frames.back();
  EXPECT_TRUE(last.final_frame);
  EXPECT_EQ(last.id, "watched");
  EXPECT_GT(last.total, 0u);
  EXPECT_EQ(last.done, last.total);
  EXPECT_DOUBLE_EQ(last.percent, 100.0);
  EXPECT_EQ(result.fingerprint, last.fingerprint);
}

TEST(SupervisorProgress, ThrottleStillDeliversFinalFrame) {
  // An interval far longer than the run: every intermediate frame is
  // throttled away, but the final frame is guaranteed.
  Supervisor sup({.workers = 1,
                  .queue_capacity = 2,
                  .progress_interval_ms = 60000.0});
  std::mutex mu;
  std::vector<JobProgress> frames;
  const JobResult result = submit_and_wait(
      sup, tiny_job("throttled"), [&](const JobProgress& p) {
        std::lock_guard<std::mutex> lock(mu);
        frames.push_back(p);
      });
  ASSERT_EQ(result.status, JobStatus::kOk) << result.error;
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(frames.empty());
  EXPECT_TRUE(frames.back().final_frame);
}

}  // namespace
}  // namespace raidsim::svc
