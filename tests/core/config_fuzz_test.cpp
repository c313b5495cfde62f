// Config-validation fuzz smoke: ~1000 randomized configs (many hostile:
// NaN/Inf knobs, zero disks, negative sizes, absurd shard counts) go
// through the validate-then-run gate. The contract under test:
//   - validate() either passes or throws std::invalid_argument -- never
//     any other exception type, never a crash;
//   - every config validate() accepts actually RUNS: a micro replay
//     completes without throwing. Validation is the only gate between
//     hostile input and the engines, so "accepted implies runnable".

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>

#include "runner/sweep_runner.hpp"

namespace raidsim {
namespace {

int uniform_int(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

double uniform_real(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

// A config drawn from plausible ranges. Cross-knob rules (RAID4 needs a
// cache, parity caching needs cached RAID4) are deliberately NOT enforced
// here so the generator also probes validate()'s combination checks.
SimulationConfig plausible_config(std::mt19937_64& rng) {
  SimulationConfig config;
  config.organization = static_cast<Organization>(rng() % 6);
  config.array_data_disks = uniform_int(rng, 1, 24);
  config.striping_unit_blocks = uniform_int(rng, 1, 64);
  config.sync = static_cast<SyncPolicy>(rng() % 5);
  config.parity_placement = static_cast<ParityPlacement>(rng() % 2);
  config.parity_fine_grain_chunk_blocks = uniform_int(rng, 0, 32);
  config.disk_scheduling = static_cast<DiskScheduling>(rng() % 3);
  config.channel_mb_per_second = uniform_real(rng, 1.0, 100.0);
  config.track_buffers_per_disk = uniform_int(rng, 1, 8);
  config.disk_retry_budget = uniform_int(rng, 0, 5);
  config.disk_retry_backoff_ms = uniform_real(rng, 0.0, 10.0);
  config.cached = (rng() % 2) != 0;
  config.cache_bytes = static_cast<std::int64_t>(1 + rng() % 64) << 20;
  config.destage_period_ms = uniform_real(rng, 1.0, 1000.0);
  config.retain_old_data = (rng() % 2) != 0;
  config.parity_caching = (rng() % 8) == 0;
  config.periodic_destage = (rng() % 2) != 0;
  config.intent_journal = (rng() % 4) == 0;
  config.shards = uniform_int(rng, 0, 8);
  config.shard_threads = uniform_int(rng, 0, 8);
  config.obs.sample_interval_ms = 0.0;
  config.tail = (rng() % 4) == 0;
  return config;
}

// Overwrite one knob with a value validate() must refuse.
void smash_knob(SimulationConfig& config, std::mt19937_64& rng) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng() % 14) {
    case 0: config.array_data_disks = 0; break;
    case 1: config.array_data_disks = std::numeric_limits<int>::max(); break;
    case 2: config.striping_unit_blocks = -1; break;
    case 3: config.striping_unit_blocks = 1 << 25; break;
    case 4: config.channel_mb_per_second = nan; break;
    case 5: config.channel_mb_per_second = -inf; break;
    case 6: config.track_buffers_per_disk = 0; break;
    case 7: config.disk_retry_backoff_ms = -1.0; break;
    case 8: config.cache_bytes = -static_cast<std::int64_t>(1 + rng() % 999);
            break;
    case 9: config.destage_period_ms = config.cached ? -5.0 : nan; break;
    case 10: config.shards = -1; break;
    case 11: config.shard_threads = 1 << 20; break;
    case 12: config.obs.sample_interval_ms = inf; break;
    default: config.disk_retry_budget = -1; break;
  }
}

// Most configs get 1-3 hostile knobs; roughly a quarter stay clean so the
// accept path is exercised too (cross-knob rules may still reject those).
SimulationConfig random_config(std::mt19937_64& rng) {
  SimulationConfig config = plausible_config(rng);
  const int smashes = static_cast<int>(rng() % 4);
  for (int i = 0; i < smashes; ++i) smash_knob(config, rng);
  return config;
}

TEST(ConfigFuzz, ValidateIsTypedAndTotal) {
  std::mt19937_64 rng(20260809);
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const SimulationConfig config = random_config(rng);
    try {
      config.validate();
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;  // the one sanctioned failure mode
    } catch (const std::exception& e) {
      FAIL() << "iteration " << i << ": wrong exception type: " << e.what();
    }
  }
  // The generator must actually exercise both sides of the gate.
  EXPECT_GT(accepted, 20) << "generator too hostile to test the accept path";
  EXPECT_GT(rejected, 200) << "generator too tame to test the reject path";
}

TEST(ConfigFuzz, AcceptedConfigsActuallyRun) {
  std::mt19937_64 rng(424242);
  const char* only_env = std::getenv("RAIDSIM_FUZZ_ONLY");
  const int only = only_env ? std::atoi(only_env) : -1;
  int ran = 0;
  for (int i = 0; i < 1000 && ran < 25; ++i) {
    SimulationConfig config = random_config(rng);
    if (only >= 0 && i != only) continue;
    // Keep the micro-runs micro: cap the knobs that multiply runtime.
    config.array_data_disks = 1 + config.array_data_disks % 12;
    config.obs.sample_interval_ms = 0.0;
    try {
      config.validate();
    } catch (const std::invalid_argument&) {
      continue;
    }
    SweepJob job;
    job.config = config;
    job.trace = "trace2";
    job.workload.scale = 0.002;  // ~140 requests: milliseconds per run
    job.workload.seed = static_cast<std::uint64_t>(i);
    try {
      if (std::getenv("RAIDSIM_FUZZ_VERBOSE") != nullptr) {
        std::fprintf(
            stderr,
            "fuzz-run i=%d %s shards=%d threads=%d sched=%d chan=%.17g "
            "bufs=%d retry=%d/%.17g retain=%d pdest=%d journal=%d\n",
            i, config.describe().c_str(), config.shards, config.shard_threads,
            static_cast<int>(config.disk_scheduling),
            config.channel_mb_per_second, config.track_buffers_per_disk,
            config.disk_retry_budget, config.disk_retry_backoff_ms,
            config.retain_old_data ? 1 : 0, config.periodic_destage ? 1 : 0,
            config.intent_journal ? 1 : 0);
      }
      const Metrics metrics = run_sweep_job(job);
      EXPECT_GT(metrics.mean_response_ms(), 0.0);
      ++ran;
    } catch (const std::exception& e) {
      FAIL() << "validated config failed to run (iteration " << i
             << "): " << e.what() << "\n  config: " << config.describe();
    }
  }
  EXPECT_GE(ran, 10) << "fuzz run subset too small to mean anything";
}

TEST(ConfigFuzz, NamedHostileKnobsAreRejectedByName) {
  // Spot-check that the most dangerous knobs produce pointed messages.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  {
    SimulationConfig c;
    c.channel_mb_per_second = nan;
    try {
      c.validate();
      FAIL() << "NaN channel rate accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("channel_mb_per_second"),
                std::string::npos);
    }
  }
  {
    SimulationConfig c;
    c.disk_retry_backoff_ms = std::numeric_limits<double>::infinity();
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SimulationConfig c;
    c.array_data_disks = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SimulationConfig c;
    c.array_data_disks = 10000000;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SimulationConfig c;
    c.shards = 1 << 20;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    SimulationConfig c;
    c.cache_bytes = -1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    // SI sync + reordering scheduler deadlocks gated writes; validate()
    // must refuse it instead of letting the run silently strand requests.
    SimulationConfig c;
    c.sync = SyncPolicy::kSimultaneousIssue;
    c.disk_scheduling = DiskScheduling::kSstf;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.disk_scheduling = DiskScheduling::kScan;
    EXPECT_THROW(c.validate(), std::invalid_argument);
    c.disk_scheduling = DiskScheduling::kFifo;
    EXPECT_NO_THROW(c.validate());
  }
}

}  // namespace
}  // namespace raidsim
