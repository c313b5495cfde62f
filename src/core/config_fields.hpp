#pragma once

#include <cstdio>
#include <string>
#include <type_traits>

#include "core/config.hpp"

namespace raidsim {

/// How one SimulationConfig field takes part in the service protocol
/// (svc/job_codec) and in the result-cache key (core/job_key).
struct ConfigField {
  enum Flags : unsigned {
    kOffWire = 1u << 0,    // model constant: no protocol key, so rejected
    kNotInKey = 1u << 1,   // cannot change the result
    kMebibytes = 1u << 2,  // byte count carried on the wire in MiB
    kOmitZero = 1u << 3,   // the encoder leaves it out while it is 0
  };
  /// Wire name, also the field's name in the key. Every wire key is a
  /// top-level key of the wire's "config" object.
  const char* name;
  unsigned flags = 0;

  bool on_wire() const { return !(flags & kOffWire); }
  bool in_key() const { return !(flags & kNotInKey); }
};

/// Calls visit(ConfigField, field) for every result-determining field of
/// `c` (a SimulationConfig, const or not) in wire order. This is the one
/// place a field's wire and key name is spelled: the codec decodes and
/// encodes the wire fields from it and job_canonical_key() writes every
/// in-key field, so a field added here is on the wire and in the key at
/// once. Not listed, as they cannot change a result: obs.tracing and
/// obs.max_trace_events (tracing is passive) and the single-valued
/// event_kernel/op_alloc.
template <class Config, class Visit>
void for_each_config_field(Config& c, Visit&& visit) {
  using F = ConfigField;
  auto& geo = c.disk_geometry;
  visit(F{"org"}, c.organization);
  visit(F{"n"}, c.array_data_disks);
  visit(F{"su"}, c.striping_unit_blocks);
  visit(F{"sync"}, c.sync);
  visit(F{"parity_placement"}, c.parity_placement);
  visit(F{"parity_fine_chunk"}, c.parity_fine_grain_chunk_blocks);
  visit(F{"geo.cylinders", F::kOffWire}, geo.cylinders);
  visit(F{"geo.tracks_per_cylinder", F::kOffWire}, geo.tracks_per_cylinder);
  visit(F{"geo.sectors_per_track", F::kOffWire}, geo.sectors_per_track);
  visit(F{"geo.bytes_per_sector", F::kOffWire}, geo.bytes_per_sector);
  visit(F{"geo.rpm", F::kOffWire}, geo.rpm);
  visit(F{"geo.block_sectors", F::kOffWire}, geo.block_sectors);
  visit(F{"seek.average_ms", F::kOffWire}, c.seek.average_ms);
  visit(F{"seek.max_ms", F::kOffWire}, c.seek.max_ms);
  visit(F{"seek.single_cylinder_ms", F::kOffWire}, c.seek.single_cylinder_ms);
  visit(F{"seek.cylinders", F::kOffWire}, c.seek.cylinders);
  visit(F{"sched"}, c.disk_scheduling);
  visit(F{"channel_mb_per_s"}, c.channel_mb_per_second);
  visit(F{"track_buffers"}, c.track_buffers_per_disk);
  visit(F{"retry_budget", F::kOffWire}, c.disk_retry_budget);
  visit(F{"retry_backoff_ms", F::kOffWire}, c.disk_retry_backoff_ms);
  visit(F{"cached"}, c.cached);
  visit(F{"cache_mb", F::kMebibytes}, c.cache_bytes);
  visit(F{"destage_period_ms"}, c.destage_period_ms);
  visit(F{"retain_old_data"}, c.retain_old_data);
  visit(F{"parity_caching"}, c.parity_caching);
  visit(F{"periodic_destage"}, c.periodic_destage);
  visit(F{"intent_journal"}, c.intent_journal);
  // shards = 0 stops destage timers at run quiescence and shards >= 1 at
  // each array's last response, which changes the destage tail
  // (docs/performance.md). Threads change only wall time.
  visit(F{"shards"}, c.shards);
  visit(F{"shard_threads", F::kNotInKey}, c.shard_threads);
  // The sampler ticks the event queue, so its interval is in the key.
  visit(F{"sample_interval_ms", F::kOmitZero}, c.obs.sample_interval_ms);
  visit(F{"sampler_capacity", F::kOffWire}, c.obs.sampler_capacity);
  visit(F{"tail"}, c.tail);
}

/// Appends a field value as the protocol and the key spell it: booleans
/// as true/false, enums by wire name, doubles round-trip exact (%.17g:
/// distinct values never collide, equal values always print the same).
template <class T>
void append_field_value(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    out += wire_name(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
  } else {
    out += std::to_string(value);
  }
}

}  // namespace raidsim
