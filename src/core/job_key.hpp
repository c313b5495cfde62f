#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/workloads.hpp"

namespace raidsim {

/// Canonical text form of one simulation point: every
/// result-determining knob of (SimulationConfig, trace, WorkloadOptions)
/// serialized in a fixed field order, doubles printed round-trip exact
/// (%.17g). Two jobs produce byte-identical metrics if and only if their
/// canonical keys are equal, so this string is the result-cache key of
/// the what-if service.
///
/// Deliberately excluded, because they cannot change the result:
///   * shard_threads (thread count never changes sharded results),
///   * obs.tracing / obs.max_trace_events (tracing is passive).
/// Deliberately included although it looks like plumbing:
///   * shards (0 and >= 1 stop destage timers at different times),
///   * obs.sample_interval_ms (the sampler ticks the event queue).
std::string job_canonical_key(const SimulationConfig& config,
                              const std::string& trace,
                              const WorkloadOptions& workload);

/// 64-bit FNV-1a of an arbitrary byte string.
std::uint64_t fnv1a64(const std::string& bytes);

/// Compact fingerprint of a job: fnv1a64(job_canonical_key(...)).
/// Reported to clients for correlation; the cache itself is keyed by the
/// full canonical string, so hash collisions cannot alias results.
std::uint64_t job_fingerprint(const SimulationConfig& config,
                              const std::string& trace,
                              const WorkloadOptions& workload);

}  // namespace raidsim
