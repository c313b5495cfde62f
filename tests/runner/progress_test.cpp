// Progress-hook invariants at shards 0 and 2:
//  - frames are monotone in events / sim time / completed requests,
//  - exactly one final frame arrives, last, with done == total,
//  - a hooked run's metrics stay bit-identical to an unhooked run,
//  - the metrics registry (on or off) never perturbs results either --
//    the telemetry plane is passive end to end.
#include <gtest/gtest.h>

#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "obs/metrics_registry.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/progress.hpp"

namespace raidsim {
namespace {

std::string metrics_json(const Metrics& m) {
  std::ostringstream os;
  m.to_json(os);
  return os.str();
}

SweepJob tiny_job(int shards) {
  SweepJob job;
  job.trace = "trace2";
  job.workload.scale = 0.05;
  job.workload.seed = 7;
  job.config.shards = shards;
  return job;
}

struct Frames {
  std::mutex mu;
  std::vector<ProgressSnapshot> all;
};

ProgressFn collector(Frames& frames) {
  return [&frames](const ProgressSnapshot& snap) {
    std::lock_guard<std::mutex> lock(frames.mu);
    frames.all.push_back(snap);
  };
}

void check_monotone(const std::vector<ProgressSnapshot>& frames) {
  ASSERT_FALSE(frames.empty());
  for (std::size_t i = 1; i < frames.size(); ++i) {
    EXPECT_GE(frames[i].events, frames[i - 1].events) << "frame " << i;
    EXPECT_GE(frames[i].sim_ms, frames[i - 1].sim_ms) << "frame " << i;
    EXPECT_GE(frames[i].done, frames[i - 1].done) << "frame " << i;
  }
  std::size_t finals = 0;
  for (const ProgressSnapshot& f : frames) finals += f.final_frame ? 1 : 0;
  EXPECT_EQ(finals, 1u);
  EXPECT_TRUE(frames.back().final_frame) << "final frame must come last";
}

void check_frames_monotone_with_one_final(int shards) {
  Frames frames;
  SweepJob job = tiny_job(shards);
  job.progress = collector(frames);
  const Metrics m = run_sweep_job(job);
  check_monotone(frames.all);
  const ProgressSnapshot& last = frames.all.back();
  EXPECT_GT(last.total, 0u);
  EXPECT_EQ(last.done, last.total);
  EXPECT_EQ(last.done, static_cast<std::uint64_t>(m.requests));
  EXPECT_GT(last.events, 0u);
}

void check_hooked_run_is_bit_identical(int shards) {
  const Metrics plain = run_sweep_job(tiny_job(shards));
  Frames frames;
  SweepJob job = tiny_job(shards);
  job.progress = collector(frames);
  const Metrics hooked = run_sweep_job(job);
  EXPECT_EQ(metrics_json(plain), metrics_json(hooked));
}

TEST(ProgressHook, ClassicFramesAreMonotoneWithOneFinal) {
  check_frames_monotone_with_one_final(0);
}

TEST(ProgressHook, ShardedFramesAreMonotoneWithOneFinal) {
  check_frames_monotone_with_one_final(2);
}

TEST(ProgressHook, HookedClassicRunIsBitIdentical) {
  check_hooked_run_is_bit_identical(0);
}

TEST(ProgressHook, HookedShardedRunIsBitIdentical) {
  check_hooked_run_is_bit_identical(2);
}

TEST(ProgressHook, RegistryOnOffRunsAreBitIdentical) {
  // Shards 0 and 2, registry enabled vs disabled: 4 runs, 2 answers.
  for (int shards : {0, 2}) {
    MetricsRegistry::instance().set_enabled(true);
    const Metrics on = run_sweep_job(tiny_job(shards));
    MetricsRegistry::instance().set_enabled(false);
    const Metrics off = run_sweep_job(tiny_job(shards));
    MetricsRegistry::instance().set_enabled(true);
    EXPECT_EQ(metrics_json(on), metrics_json(off)) << "shards=" << shards;
  }
}

TEST(ProgressHook, ClassicAndShardedAgreeUnderHooks) {
  // trace2 at N=10 is one uncached array: shards 0 and 2 agree exactly.
  Frames fc, fs;
  SweepJob streamed = tiny_job(0);
  streamed.progress = collector(fc);
  SweepJob sharded = tiny_job(2);
  sharded.progress = collector(fs);
  EXPECT_EQ(metrics_json(run_sweep_job(streamed)),
            metrics_json(run_sweep_job(sharded)));
  // Both feeds observed the same workload size.
  EXPECT_EQ(fc.all.back().total, fs.all.back().total);
}

TEST(ProgressHook, EngineEventCountersAdvance) {
  Counter& events = MetricsRegistry::instance().counter(
      "raidsim_engine_events_total", "Kernel events executed (all shards)");
  for (int shards : {0, 2}) {
    const std::uint64_t before = events.value();
    run_sweep_job(tiny_job(shards));
    EXPECT_GT(events.value(), before) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace raidsim
