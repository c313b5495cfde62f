#include "core/job_key.hpp"

#include <cstdio>

namespace raidsim {

namespace {

/// Round-trip-exact double formatting: 17 significant digits uniquely
/// identify every IEEE-754 double, so distinct knob values never collide
/// in the key and equal values always serialize identically.
void append_double(std::string& out, const char* name, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += name;
  out += '=';
  out += buf;
  out += ';';
}

void append_int(std::string& out, const char* name, long long v) {
  out += name;
  out += '=';
  out += std::to_string(v);
  out += ';';
}

}  // namespace

std::string job_canonical_key(const SimulationConfig& config,
                              const std::string& trace,
                              const WorkloadOptions& workload) {
  std::string key;
  key.reserve(768);
  key += "raidsim-job-v1;";
  append_int(key, "org", static_cast<int>(config.organization));
  append_int(key, "n", config.array_data_disks);
  append_int(key, "su", config.striping_unit_blocks);
  append_int(key, "sync", static_cast<int>(config.sync));
  append_int(key, "pplace", static_cast<int>(config.parity_placement));
  append_int(key, "pfine", config.parity_fine_grain_chunk_blocks);
  append_int(key, "geo.cyl", config.disk_geometry.cylinders);
  append_int(key, "geo.tpc", config.disk_geometry.tracks_per_cylinder);
  append_int(key, "geo.spt", config.disk_geometry.sectors_per_track);
  append_int(key, "geo.bps", config.disk_geometry.bytes_per_sector);
  append_double(key, "geo.rpm", config.disk_geometry.rpm);
  append_int(key, "geo.bsec", config.disk_geometry.block_sectors);
  append_double(key, "seek.avg", config.seek.average_ms);
  append_double(key, "seek.max", config.seek.max_ms);
  append_double(key, "seek.one", config.seek.single_cylinder_ms);
  append_int(key, "seek.cyl", config.seek.cylinders);
  append_int(key, "sched", static_cast<int>(config.disk_scheduling));
  append_double(key, "chan", config.channel_mb_per_second);
  append_int(key, "tbuf", config.track_buffers_per_disk);
  append_int(key, "retry", config.disk_retry_budget);
  append_double(key, "retrybo", config.disk_retry_backoff_ms);
  append_int(key, "cached", config.cached ? 1 : 0);
  append_int(key, "cacheb", config.cache_bytes);
  append_double(key, "destage", config.destage_period_ms);
  append_int(key, "oldret", config.retain_old_data ? 1 : 0);
  append_int(key, "pcache", config.parity_caching ? 1 : 0);
  append_int(key, "pdest", config.periodic_destage ? 1 : 0);
  append_int(key, "journal", config.intent_journal ? 1 : 0);
  // Deliberately absent: shard_threads (threads only change wall time,
  // so including it would split the cache for runs with identical
  // outputs) and the single-valued event_kernel/op_alloc. `shards`
  // stays in the key because shards = 0 stops destage timers at run
  // quiescence and shards >= 1 at each array's last response, which
  // changes the destage tail (docs/performance.md).
  append_int(key, "shards", config.shards);
  append_double(key, "sample", config.obs.sample_interval_ms);
  append_int(key, "samplecap",
             static_cast<long long>(config.obs.sampler_capacity));
  append_int(key, "tail.on", config.tail.enabled ? 1 : 0);
  append_double(key, "tail.dl", config.tail.read_deadline_ms);
  append_double(key, "tail.hd", config.tail.hedge_delay_ms);
  append_double(key, "tail.hf", config.tail.hedge_ewma_factor);
  append_int(key, "tail.rd", config.tail.redirect_on_slow ? 1 : 0);
  append_int(key, "tail.rc", config.tail.reconstruct_on_slow ? 1 : 0);
  append_double(key, "tail.sf", config.tail.slow_ewma_factor);
  key += "trace=";
  key += trace;
  key += ';';
  append_double(key, "scale", workload.scale);
  append_double(key, "speed", workload.speed);
  append_int(key, "seed", static_cast<long long>(workload.seed));
  return key;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t job_fingerprint(const SimulationConfig& config,
                              const std::string& trace,
                              const WorkloadOptions& workload) {
  return fnv1a64(job_canonical_key(config, trace, workload));
}

}  // namespace raidsim
