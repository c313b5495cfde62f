#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "core/workloads.hpp"

namespace raidsim {
namespace {

class FixedStream : public TraceStream {
 public:
  FixedStream(TraceGeometry geo, std::deque<TraceRecord> records)
      : geo_(geo), records_(std::move(records)) {}
  const TraceGeometry& geometry() const override { return geo_; }
  std::optional<TraceRecord> next() override {
    if (records_.empty()) return std::nullopt;
    TraceRecord r = records_.front();
    records_.pop_front();
    return r;
  }

 private:
  TraceGeometry geo_;
  std::deque<TraceRecord> records_;
};

TEST(Simulator, RoutesDatabaseBlocksToArrays) {
  SimulationConfig config;
  config.organization = Organization::kBase;
  config.array_data_disks = 10;
  TraceGeometry geo{25, 1000};  // 25 disks -> 3 arrays (10, 10, 5)
  Simulator sim(config, geo);
  EXPECT_EQ(sim.arrays(), 3);
  EXPECT_EQ(sim.total_disks(), 25);

  // Disk 0, offset 0.
  auto [a0, l0] = sim.route(0);
  EXPECT_EQ(a0, 0);
  EXPECT_EQ(l0, 0);
  // Disk 12, offset 34 -> array 1, local disk 2.
  auto [a1, l1] = sim.route(12 * 1000 + 34);
  EXPECT_EQ(a1, 1);
  EXPECT_EQ(l1, 2 * 1000 + 34);
  // Disk 24 -> array 2, local disk 4.
  auto [a2, l2] = sim.route(24 * 1000 + 999);
  EXPECT_EQ(a2, 2);
  EXPECT_EQ(l2, 4 * 1000 + 999);
}

TEST(Simulator, RaggedLastArraySizedToRemainder) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 10;
  TraceGeometry geo{25, 1000};
  Simulator sim(config, geo);
  // Mirror: 2x disks per array; last array has 5 data disks -> 10.
  EXPECT_EQ(sim.total_disks(), 2 * 25);
  EXPECT_EQ(sim.controller(2).layout().data_disks(), 5);
}

TEST(Simulator, SmallerDatabaseThanArraySize) {
  SimulationConfig config;
  config.array_data_disks = 15;
  TraceGeometry geo{10, 1000};
  Simulator sim(config, geo);
  EXPECT_EQ(sim.arrays(), 1);
  EXPECT_EQ(sim.controller(0).layout().data_disks(), 10);
}

TEST(Simulator, CountsEveryRequest) {
  SimulationConfig config;
  config.organization = Organization::kBase;
  config.array_data_disks = 2;
  TraceGeometry geo{2, 1000};
  FixedStream trace(geo, {
                             {0.0, 0, 1, false},
                             {5.0, 1500, 1, true},
                             {5.0, 10, 2, false},
                         });
  Simulator sim(config, geo);
  const Metrics m = sim.run(trace);
  EXPECT_EQ(m.requests, 3u);
  EXPECT_EQ(m.response_read.count(), 2u);
  EXPECT_EQ(m.response_write.count(), 1u);
  EXPECT_GT(m.mean_response_ms(), 0.0);
  EXPECT_EQ(m.arrays, 1);
  EXPECT_EQ(m.disk_accesses.size(), 2u);
  EXPECT_GE(m.elapsed_ms, 10.0);
}

TEST(Simulator, RejectsMismatchedGeometry) {
  SimulationConfig config;
  TraceGeometry geo{10, 1000};
  Simulator sim(config, geo);
  FixedStream trace(TraceGeometry{5, 1000}, {});
  EXPECT_THROW(sim.run(trace), std::invalid_argument);
}

TEST(Simulator, RejectsOutOfRangeRecords) {
  SimulationConfig config;
  config.organization = Organization::kBase;
  TraceGeometry geo{10, 1000};
  Simulator sim(config, geo);
  FixedStream trace(geo, {{0.0, 10 * 1000, 1, false}});
  EXPECT_THROW(sim.run(trace), std::out_of_range);
}

TEST(Simulator, RunIsSingleShot) {
  SimulationConfig config;
  TraceGeometry geo{10, 1000};
  Simulator sim(config, geo);
  FixedStream a(geo, {});
  sim.run(a);
  FixedStream b(geo, {});
  EXPECT_THROW(sim.run(b), std::logic_error);
}

TEST(Simulator, StrandedRequestsFailLoudly) {
  // A controller crash nobody restarts eats every request in flight and
  // every later one: the queue drains with all three never completed.
  // That must throw in release builds too, not return metrics.
  SimulationConfig config;
  config.organization = Organization::kBase;
  config.array_data_disks = 2;
  TraceGeometry geo{2, 1000};
  FixedStream trace(geo, {
                             {0.0, 0, 1, false},
                             {5.0, 1500, 1, true},
                             {5.0, 10, 2, false},
                         });
  Simulator sim(config, geo);
  sim.event_queue().schedule_at(
      1.0, [&sim] { sim.mutable_controller(0).crash_halt(false); });
  try {
    sim.run(trace);
    FAIL() << "expected StrandedRequestsError";
  } catch (const StrandedRequestsError& e) {
    EXPECT_EQ(e.stranded(), 3u);
  }
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimulationConfig config;
    config.organization = Organization::kRaid5;
    WorkloadOptions options;
    options.scale = 0.01;
    auto trace = make_workload("trace2", options);
    return run_simulation(config, *trace);
  };
  const Metrics a = run_once();
  const Metrics b = run_once();
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.mean_response_ms(), b.mean_response_ms());
  EXPECT_DOUBLE_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(Workloads, ScaleShortensTraceProportionally) {
  WorkloadOptions options;
  options.scale = 0.1;
  const TraceProfile p = workload_profile("trace2", options);
  EXPECT_NEAR(static_cast<double>(p.requests), 6954.0, 1.0);
  EXPECT_NEAR(p.duration_s, 600.0, 1.0);
  EXPECT_THROW(workload_profile("trace2", {.scale = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(workload_profile("trace2", {.scale = 1.5}),
               std::invalid_argument);
}

TEST(Workloads, SeedOverride) {
  WorkloadOptions options;
  options.scale = 0.01;
  options.seed = 777;
  EXPECT_EQ(workload_profile("trace1", options).seed, 777u);
}

TEST(Workloads, SpeedAppliesAdapter) {
  WorkloadOptions slow;
  slow.scale = 0.01;
  WorkloadOptions fast = slow;
  fast.speed = 2.0;
  auto a = make_workload("trace2", slow);
  auto b = make_workload("trace2", fast);
  double sum_a = 0.0, sum_b = 0.0;
  while (auto r = a->next()) sum_a += r->delta_ms;
  while (auto r = b->next()) sum_b += r->delta_ms;
  EXPECT_NEAR(sum_b, sum_a / 2.0, 1e-6);
}

}  // namespace
}  // namespace raidsim
