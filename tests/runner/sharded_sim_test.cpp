// Sharding contract: one simulation partitioned by array must produce
// bit-identical merged metrics at ANY shard count >= 1 and ANY thread
// count -- the same determinism discipline SweepRunner holds across whole
// sweeps, applied inside a single run -- and shards = 0 must match them
// in everything but the destage tail.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "array/rebuild.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "obs/tracer.hpp"
#include "runner/sweep_runner.hpp"
#include "trace/trace_io.hpp"

namespace raidsim {
namespace {

Metrics run_sharded(SimulationConfig config, const std::string& trace,
                    double scale, int shards, int threads) {
  config.shards = shards;
  config.shard_threads = threads;
  WorkloadOptions wo;
  wo.scale = scale;
  auto stream = make_workload(trace, wo);
  return run_simulation(config, *stream);
}

// Exact equality on every merged quantity, not near-equality: the engine
// promises the partition never perturbs a single bit.
void expect_identical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.elapsed_ms, b.elapsed_ms);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.arrays, b.arrays);
  EXPECT_EQ(a.total_disks, b.total_disks);

  EXPECT_EQ(a.response_all.count(), b.response_all.count());
  EXPECT_EQ(a.response_all.mean(), b.response_all.mean());
  EXPECT_EQ(a.response_all.p50(), b.response_all.p50());
  EXPECT_EQ(a.response_all.p95(), b.response_all.p95());
  EXPECT_EQ(a.response_all.p99(), b.response_all.p99());
  EXPECT_EQ(a.response_all.max(), b.response_all.max());
  EXPECT_EQ(a.response_read.count(), b.response_read.count());
  EXPECT_EQ(a.response_read.mean(), b.response_read.mean());
  EXPECT_EQ(a.response_write.count(), b.response_write.count());
  EXPECT_EQ(a.response_write.mean(), b.response_write.mean());

  EXPECT_EQ(a.disk_accesses, b.disk_accesses);
  EXPECT_EQ(a.disk_utilization, b.disk_utilization);

  EXPECT_EQ(a.disk_totals.reads, b.disk_totals.reads);
  EXPECT_EQ(a.disk_totals.writes, b.disk_totals.writes);
  EXPECT_EQ(a.disk_totals.rmws, b.disk_totals.rmws);
  EXPECT_EQ(a.disk_totals.busy_ms, b.disk_totals.busy_ms);
  EXPECT_EQ(a.disk_totals.seek_ms, b.disk_totals.seek_ms);
  EXPECT_EQ(a.disk_totals.queue_ms, b.disk_totals.queue_ms);
  EXPECT_EQ(a.disk_totals.held_rotations, b.disk_totals.held_rotations);

  EXPECT_EQ(a.controller.read_requests, b.controller.read_requests);
  EXPECT_EQ(a.controller.write_requests, b.controller.write_requests);
  EXPECT_EQ(a.controller.read_request_hits, b.controller.read_request_hits);
  EXPECT_EQ(a.controller.write_request_hits, b.controller.write_request_hits);
  EXPECT_EQ(a.controller.destage_writes, b.controller.destage_writes);
  EXPECT_EQ(a.controller.destage_blocks, b.controller.destage_blocks);
  EXPECT_EQ(a.controller.sync_victim_writes, b.controller.sync_victim_writes);
  EXPECT_EQ(a.controller.write_stalls, b.controller.write_stalls);
  EXPECT_EQ(a.controller.parity_spools, b.controller.parity_spools);
  EXPECT_EQ(a.controller.parity_queue_peak, b.controller.parity_queue_peak);

  EXPECT_EQ(a.cache.read_hits, b.cache.read_hits);
  EXPECT_EQ(a.cache.read_misses, b.cache.read_misses);
  EXPECT_EQ(a.cache.write_hits, b.cache.write_hits);
  EXPECT_EQ(a.cache.write_misses, b.cache.write_misses);
  EXPECT_EQ(a.cache.evictions, b.cache.evictions);
  EXPECT_EQ(a.cache.old_captures, b.cache.old_captures);
  EXPECT_EQ(a.cache.stalls, b.cache.stalls);

  EXPECT_EQ(a.channel_utilization, b.channel_utilization);
  EXPECT_EQ(a.channel_utilization_per_array, b.channel_utilization_per_array);
}

// Cached RAID5 over trace1: 13 arrays at N=10, destage timers and cache
// state active -- the configuration most sensitive to any cross-array
// coupling the partition might introduce.
TEST(ShardedSim, CachedRaid5MetricsInvariantAcrossShardCounts) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.cached = true;
  config.cache_bytes = 4 << 20;

  const Metrics base = run_sharded(config, "trace1", 0.01, 1, 1);
  ASSERT_GT(base.requests, 0u);
  EXPECT_EQ(base.arrays, 13);

  for (int shards : {2, 4, 13}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_identical(base, run_sharded(config, "trace1", 0.01, shards, 1));
  }
}

TEST(ShardedSim, MetricsInvariantAcrossThreadCounts) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.cached = true;
  config.cache_bytes = 4 << 20;

  const Metrics one = run_sharded(config, "trace1", 0.01, 4, 1);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(one, run_sharded(config, "trace1", 0.01, 4, threads));
  }
}

// Uncached mirror over trace2 split into 5 small arrays: no cache, no
// destage timer -- exercises the pure replay/merge path.
TEST(ShardedSim, UncachedMirrorMetricsInvariant) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 2;

  const Metrics base = run_sharded(config, "trace2", 0.05, 1, 1);
  ASSERT_GT(base.requests, 0u);
  ASSERT_GT(base.arrays, 1);

  for (int shards : {2, base.arrays}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    expect_identical(base, run_sharded(config, "trace2", 0.05, shards, 2));
  }
}

TEST(ShardedSim, ShardCountClampedToArrayCount) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.shards = 64;  // trace1 only has 13 arrays
  WorkloadOptions wo;
  wo.scale = 0.005;
  auto stream = make_workload("trace1", wo);

  Simulator sim(config, stream->geometry());
  EXPECT_EQ(sim.arrays(), 13);
  EXPECT_EQ(sim.shards(), 13);

  const Metrics m = sim.run(*stream);
  expect_identical(m, run_sharded(config, "trace1", 0.005, 13, 1));
}

TEST(ShardedSim, RouteMatchesArrayMajorBlockLayout) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.shards = 4;
  WorkloadOptions wo;
  wo.scale = 0.005;
  auto stream = make_workload("trace1", wo);
  Simulator sim(config, stream->geometry());

  const std::int64_t per_array =
      stream->geometry().blocks_per_disk * config.array_data_disks;
  EXPECT_EQ(sim.route(0), (std::pair<int, std::int64_t>{0, 0}));
  EXPECT_EQ(sim.route(per_array - 1),
            (std::pair<int, std::int64_t>{0, per_array - 1}));
  EXPECT_EQ(sim.route(per_array), (std::pair<int, std::int64_t>{1, 0}));
  EXPECT_EQ(sim.route(3 * per_array + 7),
            (std::pair<int, std::int64_t>{3, 7}));
}

TEST(ShardedSim, RunIsSingleShot) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 5;
  config.shards = 1;
  WorkloadOptions wo;
  wo.scale = 0.01;
  auto stream = make_workload("trace2", wo);
  Simulator sim(config, stream->geometry());
  sim.run(*stream);
  auto again = make_workload("trace2", wo);
  EXPECT_THROW(sim.run(*again), std::logic_error);
}

// Request-by-request driving shares one clock across the arrays, so it
// exists only for the streamed shard.
TEST(ShardedSim, ExternalDrivingRequiresShardZero) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 5;
  config.shards = 2;
  Simulator sim(config, TraceGeometry{10, 1000});
  EXPECT_THROW(sim.submit(TraceRecord{0.0, 0, 1, false}), std::logic_error);
  EXPECT_THROW(sim.drain_and_finalize(), std::logic_error);
  EXPECT_EQ(&sim.event_queue(), &sim.event_queue(0));
  EXPECT_NE(&sim.event_queue(0), &sim.event_queue(1));
}

TEST(ShardedSim, GeometryMismatchRejected) {
  SimulationConfig config;
  config.organization = Organization::kMirror;
  config.array_data_disks = 5;
  config.shards = 2;
  WorkloadOptions wo;
  wo.scale = 0.01;
  auto trace2 = make_workload("trace2", wo);
  Simulator sim(config, trace2->geometry());
  auto trace1 = make_workload("trace1", wo);
  EXPECT_THROW(sim.run(*trace1), std::invalid_argument);
}

// A prevalidated binary trace must replay to the same merged metrics as
// the synthetic stream it was serialized from: skipping the per-record
// bounds check is a pure fast path, never a behaviour change.
TEST(ShardedSim, PrevalidatedBinaryTraceMatchesSyntheticStream) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;
  config.cached = true;
  config.cache_bytes = 4 << 20;
  config.shards = 2;
  WorkloadOptions wo;
  wo.scale = 0.005;

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  {
    auto stream = make_workload("trace1", wo);
    BinaryTraceWriter::write(*stream, buffer);
  }
  const std::string bytes = buffer.str();
  auto binary = BinaryTraceReader::from_buffer(bytes.data(), bytes.size());
  ASSERT_TRUE(binary->prevalidated());
  const Metrics from_binary = run_simulation(config, *binary);

  auto synthetic = make_workload("trace1", wo);
  const Metrics from_synthetic = run_simulation(config, *synthetic);
  expect_identical(from_binary, from_synthetic);
}

// run_sweep_job honours config.shards. Without a cache the shard count
// changes nothing: the two arrays' responses merge in global array order
// either way, and no destage timer sets a tail.
TEST(ShardedSim, SweepJobDispatchesOnShardConfig) {
  SweepJob streamed;
  streamed.config.organization = Organization::kMirror;
  streamed.config.array_data_disks = 5;
  streamed.trace = "trace2";
  streamed.workload.scale = 0.01;

  SweepJob sharded = streamed;
  sharded.config.shards = 2;

  const Metrics a = run_sweep_job(streamed);
  ASSERT_EQ(a.arrays, 2);
  expect_identical(a, run_sweep_job(sharded));
}

void expect_same_responses(const LatencyRecorder& a, const LatencyRecorder& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.p50(), b.p50());
  EXPECT_EQ(a.p95(), b.p95());
  EXPECT_EQ(a.p99(), b.p99());
  EXPECT_EQ(a.p999(), b.p999());
  EXPECT_EQ(a.max(), b.max());
}

// Cached runs at shards = 0 and >= 1 differ only in when destage timers
// stop (run quiescence vs each array's last response), which shows only
// after an array's last response: every response and hit ratio agrees
// exactly. Only the destage-tail counters (destage writes, disk
// accesses, events, elapsed time) may differ.
TEST(ShardedSim, CachedResponsesMatchAtShardZero) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.cached = true;

  const Metrics streamed = run_sharded(config, "trace1", 0.01, 0, 1);
  const Metrics sharded = run_sharded(config, "trace1", 0.01, 4, 2);
  ASSERT_GT(streamed.requests, 0u);
  EXPECT_EQ(streamed.requests, sharded.requests);
  expect_same_responses(streamed.response_all, sharded.response_all);
  expect_same_responses(streamed.response_read, sharded.response_read);
  expect_same_responses(streamed.response_write, sharded.response_write);
  ASSERT_EQ(streamed.response_per_array.size(), 13u);
  ASSERT_EQ(sharded.response_per_array.size(), 13u);
  for (std::size_t a = 0; a < 13; ++a) {
    SCOPED_TRACE("array " + std::to_string(a));
    expect_same_responses(streamed.response_per_array[a],
                          sharded.response_per_array[a]);
  }
  EXPECT_EQ(streamed.read_hit_ratio(), sharded.read_hit_ratio());
  EXPECT_EQ(streamed.write_hit_ratio(), sharded.write_hit_ratio());
}

// Degraded RAID5 with an online rebuild of array 0 on its own shard's
// queue (raidsim_cli --fail-disk=1 --rebuild): trace2 at N=5 is two
// arrays. Uncached runs agree at every shard count; cached runs agree at
// every shard count >= 1.
Metrics run_rebuilding(bool cached, int shards) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 5;
  config.cached = cached;
  config.shards = shards;
  config.shard_threads = 2;
  WorkloadOptions wo;
  wo.scale = 0.02;
  auto stream = make_workload("trace2", wo);
  Simulator sim(config, stream->geometry());
  EXPECT_EQ(sim.arrays(), 2);
  sim.mutable_controller(0).fail_disk(1);
  RebuildProcess rebuild(sim.event_queue(0), sim.mutable_controller(0));
  rebuild.start(nullptr);
  const Metrics m = sim.run(*stream);
  EXPECT_GT(m.controller.degraded_reads + m.controller.degraded_writes, 0u);
  EXPECT_TRUE(rebuild.completed());
  return m;
}

std::string to_json(const Metrics& m) {
  std::ostringstream os;
  m.to_json(os);
  return os.str();
}

TEST(ShardedSim, DegradedRebuildRunsAtEveryShardCount) {
  const std::string uncached = to_json(run_rebuilding(false, 0));
  EXPECT_EQ(uncached, to_json(run_rebuilding(false, 1)));
  EXPECT_EQ(uncached, to_json(run_rebuilding(false, 2)));
  EXPECT_EQ(to_json(run_rebuilding(true, 1)), to_json(run_rebuilding(true, 2)));
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Per-shard trace/timeseries artifacts must also be byte-identical at a
// fixed shard count regardless of thread count.
TEST(ShardedSim, TraceExportsByteIdenticalAcrossThreadCounts) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";

  const std::string dir = ::testing::TempDir();
  auto run_with = [&](int threads, const std::string& prefix) {
    SweepJob job;
    job.config.organization = Organization::kRaid5;
    job.config.array_data_disks = 10;
    job.config.cached = true;
    job.config.cache_bytes = 4 << 20;
    job.config.shards = 4;
    job.config.shard_threads = threads;
    job.trace = "trace1";
    job.workload.scale = 0.005;
    job.trace_out = dir + prefix;
    job.sample_interval_ms = 50.0;
    return run_sweep_job(job);
  };

  const Metrics a = run_with(1, "sharded_t1");
  const Metrics b = run_with(4, "sharded_t4");
  EXPECT_EQ(a.requests, b.requests);

  for (int shard = 0; shard < 4; ++shard) {
    const std::string suffix = "_shard" + std::to_string(shard);
    for (const char* kind : {".trace.json", ".timeseries.csv"}) {
      SCOPED_TRACE(suffix + kind);
      const std::string one = slurp(dir + "sharded_t1" + suffix + kind);
      const std::string four = slurp(dir + "sharded_t4" + suffix + kind);
      EXPECT_FALSE(one.empty());
      EXPECT_EQ(one, four);
      std::remove((dir + "sharded_t1" + suffix + kind).c_str());
      std::remove((dir + "sharded_t4" + suffix + kind).c_str());
    }
  }
}

}  // namespace
}  // namespace raidsim
