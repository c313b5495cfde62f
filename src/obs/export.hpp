#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/sampler.hpp"
#include "obs/tracer.hpp"

namespace raidsim {

/// Chrome trace_event JSON (the format Perfetto and chrome://tracing
/// load). Mapping: pid = array index, tid 0 = the array/controller track,
/// tid d+1 = disk d. Disk service phases become complete ("X") slices;
/// host requests, disk-queue waits, and controller background work --
/// which all overlap -- become async ("b"/"e") slices grouped by
/// category; cache/stall markers become instants; sampler snapshots (when
/// a sampler is given) become counter ("C") series per array. See
/// docs/observability.md for the full schema.
void write_chrome_trace(std::ostream& out, const Tracer& tracer,
                        const TimeSeriesSampler* sampler = nullptr);

/// Time-series dump, one row per sample: per-disk queue depth and
/// windowed utilization, per-array cache occupancy/dirty ratio, and
/// outstanding host requests.
void write_timeseries_csv(std::ostream& out, const TimeSeriesSampler& sampler);

/// Convenience: write `<prefix>.trace.json` (and, with a sampler,
/// `<prefix>.timeseries.csv`). Returns the paths written; throws
/// std::runtime_error when a file cannot be opened.
std::vector<std::string> export_run_artifacts(const std::string& prefix,
                                              const Tracer& tracer,
                                              const TimeSeriesSampler* sampler);

}  // namespace raidsim
