#include "core/job_key.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/config_fields.hpp"

namespace raidsim {
namespace {

TEST(JobKey, IdenticalInputsIdenticalKeys) {
  SimulationConfig a, b;
  WorkloadOptions wo;
  EXPECT_EQ(job_canonical_key(a, "trace2", wo),
            job_canonical_key(b, "trace2", wo));
  EXPECT_EQ(job_fingerprint(a, "trace2", wo),
            job_fingerprint(b, "trace2", wo));
}

TEST(JobKey, KeyFormatIsVersionThree) {
  const std::string key =
      job_canonical_key(SimulationConfig{}, "trace2", WorkloadOptions{});
  EXPECT_EQ(key.rfind("raidsim-job-v3;org=raid5;n=10;", 0), 0u) << key;
  EXPECT_NE(key.find(";tail=false;trace=trace2;"), std::string::npos) << key;
}

TEST(JobKey, EveryResultDeterminingKnobChangesTheKey) {
  const SimulationConfig base;
  const WorkloadOptions wo;
  const std::string key0 = job_canonical_key(base, "trace2", wo);

  auto differs = [&](auto mutate, const char* what) {
    SimulationConfig c = base;
    WorkloadOptions w = wo;
    std::string trace = "trace2";
    mutate(c, w, trace);
    EXPECT_NE(job_canonical_key(c, trace, w), key0) << what;
  };
  differs([](auto& c, auto&, auto&) { c.organization = Organization::kMirror; },
          "organization");
  differs([](auto& c, auto&, auto&) { c.array_data_disks = 11; }, "disks");
  differs([](auto& c, auto&, auto&) { c.striping_unit_blocks = 2; }, "su");
  differs([](auto& c, auto&, auto&) { c.sync = SyncPolicy::kReadFirst; },
          "sync");
  differs([](auto& c, auto&, auto&) { c.cached = true; }, "cached");
  differs([](auto& c, auto&, auto&) { c.cache_bytes += 4096; }, "cache_bytes");
  differs([](auto& c, auto&, auto&) { c.shards = 2; }, "shards");
  differs([](auto& c, auto&, auto&) { c.tail = true; }, "tail");
  differs([](auto& c, auto&, auto&) { c.channel_mb_per_second = 20.0; },
          "channel");
  differs([](auto&, auto& w, auto&) { w.scale = 0.5; }, "scale");
  differs([](auto&, auto& w, auto&) { w.speed = 2.0; }, "speed");
  differs([](auto&, auto& w, auto&) { w.seed = 1; }, "seed");
  differs([](auto&, auto&, auto& t) { t = "trace1"; }, "trace");
}

/// One hand-written change per field of for_each_config_field, wire or
/// not, in list order. Written out rather than derived from the list so
/// that the list is checked against an independent spelling.
struct FieldChange {
  const char* name;
  std::function<void(SimulationConfig&)> change;
};

const std::vector<FieldChange>& every_field_change() {
  using C = SimulationConfig;
  static const std::vector<FieldChange> changes = {
      {"org", [](C& c) { c.organization = Organization::kRaid10; }},
      {"n", [](C& c) { c.array_data_disks = 12; }},
      {"su", [](C& c) { c.striping_unit_blocks = 8; }},
      {"sync", [](C& c) { c.sync = SyncPolicy::kDiskFirstPriority; }},
      {"parity_placement",
       [](C& c) { c.parity_placement = ParityPlacement::kEndCylinders; }},
      {"parity_fine_chunk",
       [](C& c) { c.parity_fine_grain_chunk_blocks = 4; }},
      {"geo.cylinders", [](C& c) { c.disk_geometry.cylinders = 1000; }},
      {"geo.tracks_per_cylinder",
       [](C& c) { c.disk_geometry.tracks_per_cylinder = 20; }},
      {"geo.sectors_per_track",
       [](C& c) { c.disk_geometry.sectors_per_track = 64; }},
      {"geo.bytes_per_sector",
       [](C& c) { c.disk_geometry.bytes_per_sector = 1024; }},
      {"geo.rpm", [](C& c) { c.disk_geometry.rpm = 7200.0; }},
      {"geo.block_sectors", [](C& c) { c.disk_geometry.block_sectors = 16; }},
      {"seek.average_ms", [](C& c) { c.seek.average_ms = 9.0; }},
      {"seek.max_ms", [](C& c) { c.seek.max_ms = 20.0; }},
      {"seek.single_cylinder_ms", [](C& c) { c.seek.single_cylinder_ms = 1.0; }},
      {"seek.cylinders", [](C& c) { c.seek.cylinders = 1000; }},
      {"sched", [](C& c) { c.disk_scheduling = DiskScheduling::kScan; }},
      {"channel_mb_per_s", [](C& c) { c.channel_mb_per_second = 40.0; }},
      {"track_buffers", [](C& c) { c.track_buffers_per_disk = 2; }},
      {"retry_budget", [](C& c) { c.disk_retry_budget = 0; }},
      {"retry_backoff_ms", [](C& c) { c.disk_retry_backoff_ms = 1.0; }},
      {"cached", [](C& c) { c.cached = true; }},
      {"cache_mb", [](C& c) { c.cache_bytes = 8ll << 20; }},
      {"destage_period_ms", [](C& c) { c.destage_period_ms = 100.0; }},
      {"retain_old_data", [](C& c) { c.retain_old_data = false; }},
      {"parity_caching", [](C& c) { c.parity_caching = true; }},
      {"periodic_destage", [](C& c) { c.periodic_destage = false; }},
      {"intent_journal", [](C& c) { c.intent_journal = true; }},
      {"shards", [](C& c) { c.shards = 1; }},
      {"shard_threads", [](C& c) { c.shard_threads = 2; }},
      {"sample_interval_ms", [](C& c) { c.obs.sample_interval_ms = 5.0; }},
      {"sampler_capacity", [](C& c) { c.obs.sampler_capacity = 16; }},
      {"tail", [](C& c) { c.tail = true; }},
  };
  return changes;
}

TEST(JobKey, ChangeTableCoversTheFieldListInOrder) {
  std::vector<std::string> listed;
  const SimulationConfig config;
  for_each_config_field(config, [&](const ConfigField& f, const auto&) {
    listed.emplace_back(f.name);
  });
  std::vector<std::string> changed;
  for (const auto& fc : every_field_change()) changed.emplace_back(fc.name);
  EXPECT_EQ(changed, listed);
}

TEST(JobKey, EveryListedFieldButShardThreadsChangesTheKey) {
  // Non-wire fields (geometry, seek, retry policy, sampler capacity)
  // included: a knob missing from the key would serve a cached result
  // computed for another configuration.
  const WorkloadOptions wo;
  const SimulationConfig base;
  const std::string key0 = job_canonical_key(base, "trace2", wo);
  for (const auto& fc : every_field_change()) {
    SimulationConfig c = base;
    fc.change(c);
    if (std::string(fc.name) == "shard_threads")
      EXPECT_EQ(job_canonical_key(c, "trace2", wo), key0) << fc.name;
    else
      EXPECT_NE(job_canonical_key(c, "trace2", wo), key0) << fc.name;
  }
}

TEST(JobKey, ThreadCountDoesNotChangeTheKey) {
  // shard_threads never changes results (determinism contract), so two
  // jobs differing only in thread count MUST share a cache entry.
  SimulationConfig a, b;
  a.shards = 4;
  b.shards = 4;
  a.shard_threads = 1;
  b.shard_threads = 8;
  const WorkloadOptions wo;
  EXPECT_EQ(job_canonical_key(a, "trace2", wo),
            job_canonical_key(b, "trace2", wo));
}

TEST(JobKey, TracingDoesNotChangeTheKey) {
  SimulationConfig a, b;
  b.obs.tracing = true;
  b.obs.max_trace_events = 1024;
  const WorkloadOptions wo;
  EXPECT_EQ(job_canonical_key(a, "trace2", wo),
            job_canonical_key(b, "trace2", wo));
}

TEST(JobKey, NearbyDoublesStayDistinct) {
  // %.17g round-trips every IEEE double: adjacent representable values
  // must produce different keys.
  SimulationConfig a, b;
  b.channel_mb_per_second =
      std::nextafter(b.channel_mb_per_second, 1e9);
  const WorkloadOptions wo;
  EXPECT_NE(job_canonical_key(a, "trace2", wo),
            job_canonical_key(b, "trace2", wo));
}

TEST(JobKey, Fnv1a64KnownVector) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

}  // namespace
}  // namespace raidsim
