#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/workloads.hpp"
#include "svc/json.hpp"

namespace raidsim_bench {

/// One benchmark workload: a trace preset at a stated size replayed
/// through one array configuration.
struct Workload {
  std::string name;
  std::string trace;  // "trace1" or "trace2"
  double scale = 1.0;
  double speed = 1.0;
  raidsim::SimulationConfig config;

  raidsim::WorkloadOptions options(std::uint64_t seed) const {
    raidsim::WorkloadOptions o;
    o.scale = scale;
    o.speed = speed;
    o.seed = seed;
    return o;
  }
  bool sharded() const { return config.shards >= 1; }
};

/// The four workloads, in the order --all runs them.
const std::vector<Workload>& all_workloads();
const Workload* find_workload(const std::string& name);
/// The same workload at a tiny scale (--smoke).
Workload smoke_variant(const Workload& workload);

/// Host-time result of one rep: make_workload plus engine construction,
/// then the replay to returned Metrics.
struct RepResult {
  raidsim::Metrics metrics;
  std::uint64_t records = 0;  // trace length announced by the stream
  double wall_s = 0.0;
  double cpu_s = 0.0;         // process CPU time over the same interval
};

/// `shard_threads` > 0 overrides the sharded engine's worker count.
RepResult run_rep(const Workload& workload, std::uint64_t seed,
                  int shard_threads = 0);
/// Set-up only: make_workload plus engine construction, then teardown.
double time_setup(const Workload& workload, std::uint64_t seed);

/// The outputs a correct run must reproduce exactly for a given seed.
struct Fingerprint {
  std::uint64_t requests = 0;
  double mean_response_ms = 0.0;
  double p99_response_ms = 0.0;
  std::uint64_t disk_accesses = 0;      // summed over disks
  std::uint64_t disk_access_hash = 0;   // FNV-1a over the per-disk counts
  double read_hit_ratio = 0.0;
  double write_hit_ratio = 0.0;

  static Fingerprint of(const raidsim::Metrics& metrics);
  raidsim::svc::JsonValue to_json() const;
  static Fingerprint from_json(const raidsim::svc::JsonValue& value);
  /// Empty when `other` matches; otherwise names the first field that
  /// differs. Counts must match exactly; times and ratios to a relative
  /// 1e-9, which absorbs libm variants picked per CPU without hiding a
  /// change to the model.
  std::string mismatch(const Fingerprint& other) const;
};

/// Expected fingerprints live in <dir>/<workload>.json, keyed by seed.
std::optional<Fingerprint> load_expected(const std::string& dir,
                                         const std::string& workload,
                                         std::uint64_t seed);
void store_expected(const std::string& dir, const std::string& workload,
                    std::uint64_t seed, const Fingerprint& fingerprint);

}  // namespace raidsim_bench
