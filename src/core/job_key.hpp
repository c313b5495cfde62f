#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/workloads.hpp"

namespace raidsim {

/// Canonical text form of one simulation point: every in-key field of
/// for_each_config_field (core/config_fields.hpp), then the trace and
/// WorkloadOptions, as name=value pairs in a fixed order, doubles printed
/// round-trip exact (%.17g). Two jobs produce byte-identical metrics if
/// and only if their canonical keys are equal, so this string is the
/// result-cache key of the what-if service. The "raidsim-job-v3" prefix
/// versions the format; keys and fingerprints are correlation ids within
/// one process and are never stored across processes.
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
