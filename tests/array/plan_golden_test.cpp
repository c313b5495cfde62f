// Golden pins for the controller's plan steps: the read-modify-write
// data loop, the SI/RF/DF parity synchronization, RAID4 parity caching
// with the intent journal, degraded reads and the online rebuild, the
// fail-slow reconstruct hedge, the media-error repair behind a scrub,
// and the resync of a journal replay. Each case hashes the whole
// Metrics::to_json (plus the shadow auditor's counters where one is
// attached) with FNV-1a, so a refactor of any of those steps must leave
// every simulated output byte-identical.
//
// A mismatch prints the new hash. Update a constant only for a change
// that is meant to alter simulated behaviour, and say so in the change
// description.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "array/rebuild.hpp"
#include "core/job_key.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "crash/auditor.hpp"
#include "crash/crash_injector.hpp"
#include "fault/scrub.hpp"
#include "fault/slowdown_injector.hpp"
#include "util/rng.hpp"

namespace raidsim {
namespace {

std::string to_hex(std::uint64_t h) {
  std::ostringstream out;
  out << "0x" << std::hex << h;
  return out.str();
}

std::string audit_counters(const ShadowAuditor& auditor) {
  const auto r = auditor.audit();
  std::ostringstream out;
  out << "|audit " << r.blocks_checked << ' ' << r.write_holes << ' '
      << r.lost_writes << ' ' << r.stripes_inconsistent << ' '
      << r.degraded_skipped;
  return out.str();
}

/// FNV-1a of the metrics JSON followed by `extra` (auditor counters).
std::string fingerprint(const Metrics& metrics, const std::string& extra = {}) {
  std::ostringstream out;
  metrics.to_json(out);
  out << extra;
  return to_hex(fnv1a64(out.str()));
}

std::unique_ptr<TraceStream> trace(const std::string& name, double scale) {
  WorkloadOptions options;
  options.scale = scale;
  return make_workload(name, options);
}

/// Uniform random one- to four-block requests over a small database, so
/// a rebuild or scrub sweep of a whole disk stays short.
class RandomStream : public TraceStream {
 public:
  RandomStream(int requests, std::uint64_t seed)
      : geo_{10, 1200}, left_(requests), rng_(seed) {}
  const TraceGeometry& geometry() const override { return geo_; }
  std::optional<TraceRecord> next() override {
    if (left_ == 0) return std::nullopt;
    --left_;
    TraceRecord r;
    r.delta_ms = rng_.exponential(4.0);
    r.block_count = static_cast<int>(rng_.uniform_i64(1, 4));
    r.block = rng_.uniform_i64(0, geo_.total_blocks() - r.block_count);
    r.is_write = rng_.bernoulli(0.4);
    return r;
  }

 private:
  TraceGeometry geo_;
  int left_;
  Rng rng_;
};

TEST(PlanGolden, UncachedRaid5SyncPolicies) {
  struct Case {
    SyncPolicy sync;
    const char* hash;
  };
  const Case cases[] = {
      {SyncPolicy::kSimultaneousIssue, "0x4978cf1736139e5b"},
      {SyncPolicy::kReadFirst, "0xca8dc1b07b4544e2"},
      {SyncPolicy::kReadFirstPriority, "0x7b60bc459ee4befa"},
      {SyncPolicy::kDiskFirst, "0xc502f79932562fc6"},
      {SyncPolicy::kDiskFirstPriority, "0x4bfb847a8a733051"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.sync));
    SimulationConfig config;
    config.organization = Organization::kRaid5;
    config.sync = c.sync;
    auto stream = trace("trace2", 0.1);
    EXPECT_EQ(fingerprint(run_simulation(config, *stream)), c.hash);
  }
}

TEST(PlanGolden, CachedRaid4ParityCachingJournalAudited) {
  // A small cache forces dirty victims (full RMW writebacks served
  // directly from disk) next to the spooled parity path.
  SimulationConfig config;
  config.organization = Organization::kRaid4;
  config.cached = true;
  config.cache_bytes = 128ll << 10;
  config.parity_caching = true;
  config.intent_journal = true;
  auto stream = trace("trace1", 0.005);
  Simulator sim(config, stream->geometry());
  std::vector<std::unique_ptr<ShadowAuditor>> auditors;
  for (int a = 0; a < sim.arrays(); ++a)
    auditors.push_back(
        std::make_unique<ShadowAuditor>(sim.mutable_controller(a)));
  const Metrics m = sim.run(*stream);
  EXPECT_GT(m.controller.parity_spools, 0u);
  EXPECT_GT(m.controller.sync_victim_writes, 0u);
  EXPECT_GT(m.controller.journal_intents, 0u);
  std::string extra;
  for (const auto& auditor : auditors) extra += audit_counters(*auditor);
  EXPECT_EQ(fingerprint(m, extra), "0xd5cb9f80eb8ffc98");
}

TEST(PlanGolden, CachedRaid5OldDataRetentionAudited) {
  // Destage RMW plans whose old data the cache retained (plain data
  // writes) beside victim writebacks that must read it.
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.cached = true;
  config.cache_bytes = 128ll << 10;
  auto stream = trace("trace1", 0.005);
  Simulator sim(config, stream->geometry());
  std::vector<std::unique_ptr<ShadowAuditor>> auditors;
  for (int a = 0; a < sim.arrays(); ++a)
    auditors.push_back(
        std::make_unique<ShadowAuditor>(sim.mutable_controller(a)));
  const Metrics m = sim.run(*stream);
  EXPECT_GT(m.controller.sync_victim_writes, 0u);
  EXPECT_GT(m.controller.destage_writes, 0u);
  std::string extra;
  for (const auto& auditor : auditors) extra += audit_counters(*auditor);
  EXPECT_EQ(fingerprint(m, extra), "0xf2c5474d47dbcb9d");
}

TEST(PlanGolden, DegradedRaid5WithOnlineRebuild) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  RandomStream stream(3000, 0x4EB1);
  Simulator sim(config, stream.geometry());
  sim.mutable_controller(0).fail_disk(1);
  RebuildProcess::Options options;
  options.blocks_per_pass = 60;
  options.inter_pass_gap_ms = 20.0;
  RebuildProcess rebuild(sim.event_queue(0), sim.mutable_controller(0),
                         options);
  rebuild.start(nullptr);
  const Metrics m = sim.run(stream);
  EXPECT_TRUE(rebuild.completed());
  EXPECT_GT(m.controller.degraded_reads, 0u);
  EXPECT_GT(m.controller.degraded_writes, 0u);
  EXPECT_EQ(fingerprint(m), "0x3b020a0139b39131");
}

TEST(PlanGolden, FailSlowReconstructAndHedge) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.tail = true;
  auto stream = trace("trace2", 0.05);
  Simulator sim(config, stream->geometry());
  std::vector<ArrayController*> arrays;
  for (int a = 0; a < sim.arrays(); ++a)
    arrays.push_back(&sim.mutable_controller(a));
  SlowdownConfig slow;
  slow.manual_sticky = true;
  slow.sticky_factor = 8.0;
  SlowdownInjector injector(sim.event_queue(), arrays, slow);
  injector.arm();
  injector.force_sticky(/*array=*/0, /*disk=*/1);
  const Metrics m = sim.run(*stream);
  EXPECT_GT(m.controller.hedged_reads, 0u);
  EXPECT_EQ(fingerprint(m), "0x398fd345b3e557bc");
}

TEST(PlanGolden, ScrubRepairsPlantedMediaErrors) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  RandomStream stream(3000, 0x5C2B);
  Simulator sim(config, stream.geometry());
  ArrayController& array = sim.mutable_controller(0);
  // Latent errors on data blocks, at most one per parity group: a second
  // error in the group would make the repair's reconstruction read
  // unrepairable.
  Rng rng(0x5C2B);
  std::set<std::int64_t> rows;
  while (rows.size() < 40) {
    const std::int64_t block =
        rng.uniform_i64(0, array.layout().logical_capacity() - 1);
    const auto extent = array.layout().map_read(block, 1)[0];
    if (rows.insert(extent.start_block).second)
      array.disks()[static_cast<std::size_t>(extent.disk)]->plant_media_error(
          extent.start_block);
  }
  ScrubProcess::Options options;
  options.blocks_per_pass = 60;
  options.inter_pass_gap_ms = 20.0;
  ScrubProcess scrub(sim.event_queue(0), array, options);
  scrub.start();
  const Metrics m = sim.run(stream);
  EXPECT_EQ(scrub.stats().sweeps_completed, 1u);
  EXPECT_GT(m.controller.media_repairs, 0u);
  EXPECT_EQ(fingerprint(m), "0xbc31f93a6229351e");
}

TEST(PlanGolden, CrashThenJournalReplay) {
  // crash_drill's variant B on the Simulator: a cached, journaled RAID5
  // array loses power mid stripe-update during the first destage, then
  // restarts and resyncs the stripes its open intents name.
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 4;
  config.cached = true;
  config.intent_journal = true;
  const TraceGeometry geo{4, 3000};
  Simulator sim(config, geo);
  ArrayController& array = sim.mutable_controller(0);
  ShadowAuditor auditor(array);
  EventQueue& eq = sim.event_queue(0);
  CrashInjector injector(eq, array);

  // Every host write completes before the first destage tick, so the
  // crash strands no host request.
  Rng rng(0xD155C0);
  for (int i = 0; i < 256; ++i) {
    const std::int64_t block = rng.uniform_i64(0, geo.total_blocks() - 1);
    eq.schedule_at(i * 1.0, [&sim, block] {
      sim.submit(TraceRecord{0.0, block, 1, true});
    });
  }
  bool armed = false;
  while (!array.crashed() && eq.now() < 60000.0 && eq.step()) {
    const bool window = auditor.first_inconsistent_block() >= 0;
    if (window && !armed) {
      injector.crash_at(eq.now() + 1e-6);
      armed = true;
    } else if (!window && armed) {
      injector.disarm();
      armed = false;
    }
  }
  ASSERT_TRUE(array.crashed());
  eq.run_until(eq.now() + 30000.0);
  const Metrics m = sim.drain_and_finalize();
  EXPECT_TRUE(injector.last_recovery().used_journal);
  EXPECT_GT(m.controller.resync_stripes, 0u);
  EXPECT_EQ(fingerprint(m, audit_counters(auditor)), "0x7ef3654d8efa4e66");
}

}  // namespace
}  // namespace raidsim
