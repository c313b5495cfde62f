// Cooperative-cancellation coverage at shards 0 and 2 (the service's
// deadline, stuck-job and drain paths are all expiries on these tokens):
//  - a cancelled run unwinds with CancelledError and leaks nothing
//    (the ASan job runs this binary with detect_leaks=1),
//  - a past expiry stops the run at its first poll, and an expiry
//    lowered from another thread stops it with the lowered reason,
//  - a token that never fires, or whose expiry has not passed, changes
//    NOTHING: metrics stay bit-identical to a run without any token.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/cancellation.hpp"

namespace raidsim {
namespace {

WorkloadOptions tiny_workload() {
  WorkloadOptions wo;
  wo.scale = 0.05;
  wo.seed = 1;
  return wo;
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream os;
  m.to_json(os);
  return os.str();
}

SweepJob trace2_job(WorkloadOptions wo) {
  SweepJob job;
  job.trace = "trace2";
  job.workload = wo;
  return job;
}

TEST(Cancellation, TokenFirstReasonWins) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel(CancelReason::kDeadline);
  token.cancel(CancelReason::kWatchdog);  // loses the race
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, EarliestExpiryWinsAndItsReasonLatches) {
  const auto now = CancelToken::Clock::now();
  CancelToken token;
  token.expire_at(now + std::chrono::hours(1), CancelReason::kWatchdog);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  token.expire_at(now - std::chrono::milliseconds(1), CancelReason::kShutdown);
  token.expire_at(now + std::chrono::hours(2), CancelReason::kDeadline);
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kShutdown);
  // Latched: neither an earlier expiry nor cancel() changes the reason.
  token.expire_at(now - std::chrono::hours(1), CancelReason::kDeadline);
  token.cancel(CancelReason::kClient);
  EXPECT_EQ(token.reason(), CancelReason::kShutdown);
  token.reset();
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, PreCancelledRunThrowsImmediately) {
  CancelToken token;
  token.cancel(CancelReason::kClient);
  SweepJob job = trace2_job(tiny_workload());
  job.cancel = &token;
  EXPECT_THROW(run_sweep_job(job), CancelledError);
}

// Cancel from another thread while the replay runs; the run must throw
// CancelledError carrying the reason, and normal unwinding must release
// everything (leak-checked under ASan).
void check_mid_run_cancel_unwinds(int shards) {
  CancelToken token;
  SweepJob job = trace2_job(WorkloadOptions{});
  job.config.shards = shards;
  job.config.shard_threads = 2;
  job.workload.scale = 1.0;  // long enough to guarantee a mid-run cancel
  job.workload.seed = 2;
  job.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel(CancelReason::kDeadline);
  });
  try {
    run_sweep_job(job);
    ADD_FAILURE() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  canceller.join();
}

// An expiry that has already passed stops the run at its first poll:
// before any event batch, so no progress frame is ever emitted.
void check_past_expiry_stops_at_first_poll(int shards) {
  CancelToken token;
  token.expire_at(CancelToken::Clock::now() - std::chrono::milliseconds(1),
                  CancelReason::kDeadline);
  SweepJob job = trace2_job(tiny_workload());
  job.config.shards = shards;
  job.cancel = &token;
  std::atomic<int> frames{0};
  job.progress = [&frames](const ProgressSnapshot&) { frames.fetch_add(1); };
  try {
    run_sweep_job(job);
    ADD_FAILURE() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  EXPECT_EQ(frames.load(), 0);
}

// A far-future expiry is set, then lowered to now from another thread
// while the replay polls: the run stops with the lowered expiry's reason.
void check_lowered_expiry_stops_run(int shards) {
  CancelToken token;
  token.expire_at(CancelToken::Clock::now() + std::chrono::hours(1),
                  CancelReason::kWatchdog);
  SweepJob job = trace2_job(WorkloadOptions{});
  job.config.shards = shards;
  job.config.shard_threads = 2;
  job.workload.scale = 1.0;  // long enough to guarantee a mid-run expiry
  job.workload.seed = 3;
  job.cancel = &token;
  std::thread lowerer([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.expire_at(CancelToken::Clock::now(), CancelReason::kDeadline);
  });
  try {
    run_sweep_job(job);
    ADD_FAILURE() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  lowerer.join();
}

void check_unfired_token_is_bit_identical(int shards) {
  SweepJob plain = trace2_job(tiny_workload());
  plain.config.shards = shards;
  const Metrics baseline = run_sweep_job(plain);

  CancelToken token;  // never fires
  SweepJob watched = plain;
  watched.cancel = &token;
  EXPECT_EQ(metrics_json(baseline), metrics_json(run_sweep_job(watched)));

  CancelToken distant;  // polled against the clock, never passes
  distant.expire_at(CancelToken::Clock::now() + std::chrono::hours(24),
                    CancelReason::kDeadline);
  watched.cancel = &distant;
  EXPECT_EQ(metrics_json(baseline), metrics_json(run_sweep_job(watched)));
}

TEST(Cancellation, MidRunCancelUnwindsClassicEngine) {
  check_mid_run_cancel_unwinds(0);
}

TEST(Cancellation, MidRunCancelUnwindsShardedEngine) {
  check_mid_run_cancel_unwinds(2);
}

TEST(Cancellation, PastExpiryStopsAtFirstPollClassic) {
  check_past_expiry_stops_at_first_poll(0);
}

TEST(Cancellation, PastExpiryStopsAtFirstPollSharded) {
  check_past_expiry_stops_at_first_poll(2);
}

TEST(Cancellation, LoweredExpiryStopsRunClassic) {
  check_lowered_expiry_stops_run(0);
}

TEST(Cancellation, LoweredExpiryStopsRunSharded) {
  check_lowered_expiry_stops_run(2);
}

TEST(Cancellation, UnfiredTokenIsBitIdenticalClassic) {
  check_unfired_token_is_bit_identical(0);
}

TEST(Cancellation, UnfiredTokenIsBitIdenticalSharded) {
  check_unfired_token_is_bit_identical(2);
}

TEST(Cancellation, CancelledRunCanBeRetriedCleanly) {
  // The supervisor's retry path re-runs a job after a cancel/failure;
  // the second run must produce the same bytes as an undisturbed run.
  SweepJob plain = trace2_job(tiny_workload());
  const Metrics baseline = run_sweep_job(plain);

  CancelToken token;
  token.cancel();
  SweepJob doomed = plain;
  doomed.cancel = &token;
  EXPECT_THROW(run_sweep_job(doomed), CancelledError);

  token.reset();
  const Metrics retried = run_sweep_job(doomed);
  EXPECT_EQ(metrics_json(baseline), metrics_json(retried));
}

}  // namespace
}  // namespace raidsim
