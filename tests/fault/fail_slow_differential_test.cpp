// Differential guard for the fail-slow machinery: with injection off and
// tail policies disabled, a run must be BIT-IDENTICAL to one that never
// heard of fail-slow -- same events executed, same response-time moments,
// same per-disk counters -- at shards 0 and 2.
// This is the contract that lets the feature ship enabled-by-compile,
// disabled-by-default.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "fault/slowdown_injector.hpp"

namespace raidsim {
namespace {

SimulationConfig base_config(Organization org) {
  SimulationConfig config;
  config.organization = org;
  config.array_data_disks = 10;
  config.cached = false;
  return config;
}

Metrics run(SimulationConfig config, const std::string& trace, double scale,
            int shards, bool attach_disabled_injector = false) {
  config.shards = shards;
  config.shard_threads = 2;
  WorkloadOptions wo;
  wo.scale = scale;
  auto stream = make_workload(trace, wo);
  Simulator sim(config, stream->geometry());
  std::unique_ptr<SlowdownInjector> injector;
  if (attach_disabled_injector) {
    std::vector<ArrayController*> arrays;
    for (int a = 0; a < sim.arrays(); ++a)
      arrays.push_back(&sim.mutable_controller(a));
    // Default config: enabled() is false, so arm() installs nothing.
    injector = std::make_unique<SlowdownInjector>(sim.event_queue(), arrays,
                                                  SlowdownConfig{});
    injector->arm();
    EXPECT_FALSE(injector->armed());
  }
  return sim.run(*stream);
}

// Exact equality, not near-equality: EXPECT_EQ on doubles on purpose.
void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.events_executed, b.events_executed);

  EXPECT_EQ(a.response_all.count(), b.response_all.count());
  EXPECT_EQ(a.response_all.mean(), b.response_all.mean());
  EXPECT_EQ(a.response_all.p99(), b.response_all.p99());
  EXPECT_EQ(a.response_all.p999(), b.response_all.p999());
  EXPECT_EQ(a.response_read.mean(), b.response_read.mean());
  EXPECT_EQ(a.response_write.mean(), b.response_write.mean());

  EXPECT_EQ(a.disk_totals.reads, b.disk_totals.reads);
  EXPECT_EQ(a.disk_totals.writes, b.disk_totals.writes);
  EXPECT_EQ(a.disk_totals.busy_ms, b.disk_totals.busy_ms);
  EXPECT_EQ(a.disk_totals.queue_ms, b.disk_totals.queue_ms);
  EXPECT_EQ(a.disk_totals.slow_ops, b.disk_totals.slow_ops);
  EXPECT_EQ(a.disk_totals.slowdown_ms, b.disk_totals.slowdown_ms);

  EXPECT_EQ(a.controller.read_requests, b.controller.read_requests);
  EXPECT_EQ(a.controller.write_requests, b.controller.write_requests);
  EXPECT_EQ(a.controller.timeouts_fired, b.controller.timeouts_fired);
  EXPECT_EQ(a.controller.hedged_reads, b.controller.hedged_reads);
  EXPECT_EQ(a.controller.hedge_wins, b.controller.hedge_wins);
  EXPECT_EQ(a.controller.redirected_reads, b.controller.redirected_reads);

  ASSERT_EQ(a.response_per_array.size(), b.response_per_array.size());
  for (std::size_t i = 0; i < a.response_per_array.size(); ++i) {
    EXPECT_EQ(a.response_per_array[i].count(),
              b.response_per_array[i].count());
    EXPECT_EQ(a.response_per_array[i].mean(), b.response_per_array[i].mean());
    EXPECT_EQ(a.response_per_array[i].p99(), b.response_per_array[i].p99());
  }
  ASSERT_EQ(a.disk_op_latency.size(), b.disk_op_latency.size());
  for (std::size_t i = 0; i < a.disk_op_latency.size(); ++i) {
    EXPECT_EQ(a.disk_op_latency[i].count(), b.disk_op_latency[i].count());
    EXPECT_EQ(a.disk_op_latency[i].mean(), b.disk_op_latency[i].mean());
    EXPECT_EQ(a.disk_op_latency[i].max(), b.disk_op_latency[i].max());
  }
}

TEST(FailSlowDifferential, DisabledInjectorIsBitIdenticalClassic) {
  for (int shards : {0, 2}) {
    for (auto org : {Organization::kRaid5, Organization::kMirror}) {
      SCOPED_TRACE(to_string(org) + " shards=" + std::to_string(shards));
      const SimulationConfig config = base_config(org);
      const Metrics plain = run(config, "trace2", 0.05, shards);
      const Metrics with_injector = run(config, "trace2", 0.05, shards, true);
      ASSERT_GT(plain.requests, 0u);
      expect_identical(plain, with_injector);
      EXPECT_EQ(plain.disk_totals.slow_ops, 0u);
      EXPECT_EQ(plain.controller.hedged_reads, 0u);
      EXPECT_EQ(plain.controller.timeouts_fired, 0u);
    }
  }
}

TEST(FailSlowDifferential, ShardedMergeMatchesClassicTailFields) {
  // The per-array / per-disk recorders must merge to the streamed
  // (shards = 0) values bit-for-bit at any shard count; uncached, the
  // shard count changes nothing. trace2 at N=10 is a single array, so
  // partition it into 5 small mirrored arrays instead.
  SimulationConfig config = base_config(Organization::kMirror);
  config.array_data_disks = 2;
  const Metrics streamed = run(config, "trace2", 0.05, 0);
  ASSERT_GT(streamed.requests, 0u);
  ASSERT_GT(streamed.arrays, 1);
  ASSERT_EQ(streamed.response_per_array.size(),
            static_cast<std::size_t>(streamed.arrays));
  ASSERT_EQ(streamed.disk_op_latency.size(),
            static_cast<std::size_t>(streamed.total_disks));
  for (int shards : {1, 2, streamed.arrays}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_identical(streamed, run(config, "trace2", 0.05, shards));
  }
}

}  // namespace
}  // namespace raidsim
