#include "core/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/workloads.hpp"
#include "trace/trace_io.hpp"

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

/// `count` records spread over the whole database; record `bad` (if
/// below `count`) addresses one block past its end.
class SweepStream : public TraceStream {
 public:
  SweepStream(TraceGeometry geo, int count, int bad)
      : geo_(geo), count_(count), bad_(bad) {}
  const TraceGeometry& geometry() const override { return geo_; }
  std::optional<TraceRecord> next() override {
    if (n_ == count_) return std::nullopt;
    const int i = n_++;
    TraceRecord r;
    r.delta_ms = 2.0 + (i % 7);
    r.block = i == bad_ ? geo_.total_blocks()
                        : (static_cast<std::int64_t>(i) * 7919) %
                              geo_.total_blocks();
    r.is_write = i % 3 == 0;
    return r;
  }

 private:
  TraceGeometry geo_;
  int count_;
  int bad_;
  int n_ = 0;
};

/// Two arrays of 4 data disks.
const TraceGeometry kTwoArrays{8, 1000};

/// Cached RAID5 over kTwoArrays: one shard per array at shards >= 1, run
/// on 2 threads.
SimulationConfig two_cached_raid5(int shards) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.cached = true;
  config.array_data_disks = 4;
  config.shards = shards;
  config.shard_threads = 2;
  return config;
}

/// Records in the first feed window of two_cached_raid5(shards).
int first_window(int shards) {
  return static_cast<int>(Simulator::kWindowPerShard) * (shards == 0 ? 1 : 2);
}

/// BinaryTraceWriter's image of a clean SweepStream with record `index`
/// patched afterwards, as a corrupt or crafted file would carry it.
template <typename Patch>
std::string patched_binary(TraceGeometry geo, int count, int index,
                           Patch patch) {
  SweepStream clean(geo, count, -1);
  std::stringstream out(std::ios::in | std::ios::out | std::ios::binary);
  BinaryTraceWriter::write(clean, out);
  std::string bytes = out.str();
  const std::size_t at = sizeof(BinaryTraceHeader) +
                         static_cast<std::size_t>(index) *
                             sizeof(BinaryTraceRecord);
  BinaryTraceRecord rec;
  std::memcpy(&rec, bytes.data() + at, sizeof(rec));
  patch(rec);
  std::memcpy(bytes.data() + at, &rec, sizeof(rec));
  return bytes;
}

TEST(Simulator, OutOfRangeRecordMidTraceUnwindsShards) {
  // The reader meets the bad record in the first window (read before any
  // epoch), in the second (read while epoch 1 runs) or many windows into
  // the trace, while the shards have requests in flight and destage
  // timers pending. Each run must throw out_of_range from run() with
  // every worker joined -- not hang in a parked shard, not terminate on a
  // joinable thread -- and tear down cleanly. Binary traces carrying a
  // bad extent or a NaN delta at the same place are checked too: a file
  // is outside input, whatever its header says.
  for (const int shards : {0, 2}) {
    const SimulationConfig config = two_cached_raid5(shards);
    for (const int bad : {100, first_window(shards) + 100, 40'000}) {
      const std::string bad_extent = patched_binary(
          kTwoArrays, 50'000, bad, [](BinaryTraceRecord& rec) {
            rec.block = kTwoArrays.total_blocks();
          });
      const std::string nan_delta = patched_binary(
          kTwoArrays, 50'000, bad, [](BinaryTraceRecord& rec) {
            rec.delta_ms = std::numeric_limits<double>::quiet_NaN();
          });
      const std::string* const no_image = nullptr;
      for (const std::string* image : {no_image, &bad_extent, &nan_delta}) {
        SCOPED_TRACE("shards " + std::to_string(shards) + ", bad record " +
                     std::to_string(bad) + ", " +
                     (image == no_image      ? "stream"
                      : image == &bad_extent ? "binary extent"
                                             : "binary NaN delta"));
        std::unique_ptr<TraceStream> trace;
        if (image == no_image)
          trace = std::make_unique<SweepStream>(kTwoArrays, 50'000, bad);
        else
          trace = BinaryTraceReader::from_buffer(image->data(), image->size());
        Simulator sim(config, kTwoArrays);
        ASSERT_EQ(sim.shards(), shards == 0 ? 1 : 2);
        EXPECT_THROW(sim.run(*trace), std::out_of_range);
        if (bad == 100) {
          // Nothing ran: the first window never reached a shard.
          EXPECT_EQ(sim.event_queue(0).executed(), 0u);
        } else {
          EXPECT_GT(sim.event_queue(0).executed(), 0u);
          EXPECT_GT(sim.event_queue(1).executed(), 0u);
        }
      }
    }
  }
}

TEST(Simulator, ShardFailureOutranksReadFailure) {
  // Epoch 1 is cancelled from the progress hook while the reader meets a
  // bad record in the window it reads alongside: the shards' failure
  // comes first, as when the read followed the epoch.
  for (const int shards : {0, 2}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    const SimulationConfig config = two_cached_raid5(shards);
    SweepStream trace(kTwoArrays, 50'000, first_window(shards) + 100);
    CancelToken token;
    Simulator sim(config, kTwoArrays);
    sim.set_cancel_token(&token);
    sim.set_progress_hook([&token](const ProgressSnapshot&) {
      token.cancel();
    });
    EXPECT_THROW(sim.run(trace), CancelledError);
  }
}

/// Forwards another stream and records the thread of every next() call.
class ThreadRecordingStream : public TraceStream {
 public:
  explicit ThreadRecordingStream(TraceStream& inner) : inner_(inner) {}
  const TraceGeometry& geometry() const override { return inner_.geometry(); }
  std::optional<TraceRecord> next() override {
    threads_.push_back(std::this_thread::get_id());
    return inner_.next();
  }
  const std::vector<std::thread::id>& threads() const { return threads_; }

 private:
  TraceStream& inner_;
  std::vector<std::thread::id> threads_;
};

TEST(FeedReader, TraceIsReadOnlyOnTheRunThread) {
  // The reader works one window ahead of the shards, but never leaves
  // the thread that called run(): a TraceStream need not be thread-safe.
  // 13 arrays; the trace spans several windows at every shard count.
  const TraceGeometry geo{26, 1000};
  for (const int shards : {0, 2, 13}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    SimulationConfig config;
    config.organization = Organization::kBase;
    config.array_data_disks = 2;
    config.shards = shards;
    config.shard_threads = 2;
    SweepStream records(geo, 150'000, 150'000);
    ThreadRecordingStream trace(records);
    Simulator sim(config, geo);
    ASSERT_EQ(sim.shards(), shards == 0 ? 1 : shards);
    const Metrics m = sim.run(trace);
    EXPECT_EQ(m.requests, 150'000u);
    ASSERT_GT(trace.threads().size(), 150'000u);
    const std::thread::id caller = std::this_thread::get_id();
    EXPECT_EQ(std::count(trace.threads().begin(), trace.threads().end(),
                         caller),
              static_cast<std::ptrdiff_t>(trace.threads().size()));
  }
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
  // every later one: array 1's queue drains with all three never
  // completed, while array 0 serves its one request. That must throw in
  // release builds too, not return metrics, and name array 1 whichever
  // shard it runs in.
  for (int shards : {0, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SimulationConfig config;
    config.organization = Organization::kBase;
    config.array_data_disks = 2;
    config.shards = shards;
    TraceGeometry geo{4, 1000};
    FixedStream trace(geo, {
                               {0.0, 2000, 1, false},
                               {0.0, 0, 1, false},
                               {5.0, 3500, 1, true},
                               {5.0, 2010, 2, false},
                           });
    Simulator sim(config, geo);
    sim.event_queue(1).schedule_at(
        1.0, [&sim] { sim.mutable_controller(1).crash_halt(false); });
    try {
      sim.run(trace);
      ADD_FAILURE() << "expected StrandedRequestsError";
    } catch (const StrandedRequestsError& e) {
      EXPECT_EQ(e.stranded(), 3u);
      EXPECT_EQ(e.array(), 1);
      EXPECT_EQ(e.array_stranded(), 3u);
      EXPECT_NE(std::string(e.what()).find("array 1 holds 3"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Simulator, DrainAndFinalizeFailsLoudlyWhenStranded) {
  // The two crash repros above, driven through submit() and
  // drain_and_finalize() (the closed-loop and drill path): an unrestarted
  // crash strands all three requests; a crash that eats the first read
  // and restarts strands one, and the restarted destage timer must not
  // keep the drain ticking forever.
  for (bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cached" : "uncached");
    SimulationConfig config;
    config.organization = cached ? Organization::kRaid5 : Organization::kBase;
    config.cached = cached;
    config.array_data_disks = cached ? 4 : 2;
    const TraceGeometry geo{config.array_data_disks, 1000};
    Simulator sim(config, geo);
    EventQueue& eq = sim.event_queue();
    double arrival = 0.0;
    for (const TraceRecord& r : {TraceRecord{0.0, 0, 1, false},
                                 TraceRecord{5.0, 1500, 1, true},
                                 TraceRecord{5.0, 10, 2, false}}) {
      arrival += r.delta_ms;
      eq.schedule_at(arrival, [&sim, r] { sim.submit(r); });
    }
    eq.schedule_at(1.0, [&sim, cached] {
      sim.mutable_controller(0).crash_halt(cached);
    });
    if (cached)
      eq.schedule_at(2.0,
                     [&sim] { sim.mutable_controller(0).crash_restart(); });
    // Submit everything before the drain, as a closed-loop driver does.
    while (eq.now() < arrival && eq.step()) {
    }
    try {
      sim.drain_and_finalize();
      ADD_FAILURE() << "expected StrandedRequestsError";
    } catch (const StrandedRequestsError& e) {
      EXPECT_EQ(e.stranded(), cached ? 1u : 3u);
      EXPECT_EQ(e.array(), 0);
      EXPECT_EQ(e.array_stranded(), e.stranded());
    }
  }
}

TEST(Simulator, StrandedCachedRunEnds) {
  // The crash eats the first read; the controller restarts and serves the
  // rest. Once the trace is done and the write is destaged, nothing can
  // complete the lost read, but the restarted destage timer would tick
  // forever: the run must stop it and throw instead of hanging (ctest's
  // TIMEOUT turns a regression into a fast failure).
  for (int shards : {0, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SimulationConfig config;
    config.organization = Organization::kRaid5;
    config.cached = true;
    config.array_data_disks = 4;
    config.shards = shards;
    TraceGeometry geo{4, 1000};
    FixedStream trace(geo, {
                               {0.0, 0, 1, false},
                               {5.0, 1500, 1, true},
                               {5.0, 10, 2, false},
                           });
    Simulator sim(config, geo);
    sim.event_queue().schedule_at(
        1.0, [&sim] { sim.mutable_controller(0).crash_halt(true); });
    sim.event_queue().schedule_at(
        2.0, [&sim] { sim.mutable_controller(0).crash_restart(); });
    try {
      sim.run(trace);
      ADD_FAILURE() << "expected StrandedRequestsError";
    } catch (const StrandedRequestsError& e) {
      EXPECT_EQ(e.stranded(), 1u);
    }
  }
}

TEST(Simulator, RetryBackoffIsNotStranded) {
  // The only request waits out a transient-error backoff long enough for
  // thousands of destage ticks, so batch boundaries pass while no disk
  // op is queued. That request can still complete: the run must not
  // count it stranded and stop the timers early.
  for (int shards : {0, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    SimulationConfig config;
    config.organization = Organization::kRaid5;
    config.cached = true;
    config.array_data_disks = 4;
    config.disk_retry_backoff_ms = 2.0e6;
    config.shards = shards;
    TraceGeometry geo{4, 1000};
    FixedStream trace(geo, {{0.0, 0, 1, false}});
    Simulator sim(config, geo);
    bool failed_once = false;
    for (const auto& disk : sim.controller(0).disks())
      disk->set_fault_evaluator([&failed_once](const DiskRequest&) {
        if (failed_once) return DiskError::kNone;
        failed_once = true;
        return DiskError::kTransient;
      });
    const Metrics m = sim.run(trace);
    EXPECT_EQ(m.requests, 1u);
    EXPECT_EQ(m.controller.transient_retries, 1u);
    // Every 300 ms destage tick of the backoff ran.
    EXPECT_GT(m.events_executed, 6000u);
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
