#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "array/controller.hpp"
#include "cache/nv_cache.hpp"
#include "disk/disk.hpp"
#include "util/stats.hpp"

namespace raidsim {

/// Aggregate results of one simulation run. Response times are
/// host-visible (arrival to response), in milliseconds -- the quantity
/// every figure in the paper plots.
struct Metrics {
  LatencyRecorder response_all;
  LatencyRecorder response_read;
  LatencyRecorder response_write;

  /// Host-visible response time broken out per array. Lets the tail
  /// report show which array the straggler lives in.
  std::vector<LatencyRecorder> response_per_array;
  /// Physical op latency (enqueue to completion) per disk, array-major.
  /// The raw signal behind the slow-disk detector; merged across shards
  /// in global array order so every shard count agrees bit-for-bit.
  std::vector<LatencyRecorder> disk_op_latency;

  double elapsed_ms = 0.0;
  std::uint64_t requests = 0;

  int arrays = 0;
  int total_disks = 0;

  /// Physical accesses per disk, array-major (Figures 6 and 7).
  std::vector<std::uint64_t> disk_accesses;
  /// Utilization (busy fraction) per disk, array-major.
  std::vector<double> disk_utilization;

  DiskStats disk_totals;        // summed over all disks
  ControllerStats controller;   // summed over all arrays
  NvCache::Stats cache;         // summed over all arrays (cached runs)
  double channel_utilization = 0.0;  // mean over arrays
  /// Channel utilization of each array individually (the mean above
  /// hides imbalance when the trace skews toward one array).
  std::vector<double> channel_utilization_per_array;
  std::uint64_t events_executed = 0;

  double mean_response_ms() const { return response_all.mean(); }
  double read_hit_ratio() const { return controller.read_hit_ratio(); }
  double write_hit_ratio() const { return controller.write_hit_ratio(); }
  double mean_disk_utilization() const;
  double max_disk_utilization() const;
  /// Coefficient of variation of per-disk access counts (load-balance
  /// measure behind Figures 6-7).
  double disk_access_cv() const;

  /// Machine-readable dump: counters, tail percentiles (p50/p95/p99/p999)
  /// for the run and each array, and per-disk op-latency summaries.
  /// Stable key order; plain ASCII JSON.
  void to_json(std::ostream& out) const;
};

/// Sum `src` into `total` field by field (parity_queue_peak takes the
/// max). Simulator's finalize applies it in global array order, so array
/// statistics aggregate the same way at every shard count.
void accumulate(DiskStats& total, const DiskStats& src);
void accumulate(ControllerStats& total, const ControllerStats& src);
void accumulate(NvCache::Stats& total, const NvCache::Stats& src);

}  // namespace raidsim
