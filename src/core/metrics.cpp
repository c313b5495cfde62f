#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace raidsim {

void accumulate(DiskStats& total, const DiskStats& src) {
  total.reads += src.reads;
  total.writes += src.writes;
  total.rmws += src.rmws;
  total.busy_ms += src.busy_ms;
  total.seek_ms += src.seek_ms;
  total.latency_ms += src.latency_ms;
  total.transfer_ms += src.transfer_ms;
  total.hold_ms += src.hold_ms;
  total.queue_ms += src.queue_ms;
  total.held_rotations += src.held_rotations;
  total.transient_faults += src.transient_faults;
  total.media_faults += src.media_faults;
  total.power_fail_drops += src.power_fail_drops;
  total.slow_ops += src.slow_ops;
  total.slowdown_ms += src.slowdown_ms;
}

void accumulate(ControllerStats& total, const ControllerStats& src) {
  total.read_requests += src.read_requests;
  total.write_requests += src.write_requests;
  total.read_request_hits += src.read_request_hits;
  total.write_request_hits += src.write_request_hits;
  total.destage_writes += src.destage_writes;
  total.destage_blocks += src.destage_blocks;
  total.sync_victim_writes += src.sync_victim_writes;
  total.write_stalls += src.write_stalls;
  total.parity_spools += src.parity_spools;
  total.parity_reservation_failures += src.parity_reservation_failures;
  total.parity_queue_peak =
      std::max(total.parity_queue_peak, src.parity_queue_peak);
  total.degraded_reads += src.degraded_reads;
  total.degraded_writes += src.degraded_writes;
  total.unrecoverable += src.unrecoverable;
  total.transient_retries += src.transient_retries;
  total.retry_exhaustions += src.retry_exhaustions;
  total.media_errors += src.media_errors;
  total.media_repairs += src.media_repairs;
  total.media_losses += src.media_losses;
  total.crashes += src.crashes;
  total.crash_dropped_ops += src.crash_dropped_ops;
  total.crash_discarded_write_blocks += src.crash_discarded_write_blocks;
  total.crash_aborted_host_writes += src.crash_aborted_host_writes;
  total.journal_intents += src.journal_intents;
  total.journal_replays += src.journal_replays;
  total.resync_stripes += src.resync_stripes;
  total.resync_read_blocks += src.resync_read_blocks;
  total.resync_write_blocks += src.resync_write_blocks;
  total.full_resyncs += src.full_resyncs;
  total.recovery_ms += src.recovery_ms;
  total.timeouts_fired += src.timeouts_fired;
  total.hedged_reads += src.hedged_reads;
  total.hedge_wins += src.hedge_wins;
  total.hedge_cancellations += src.hedge_cancellations;
  total.redirected_reads += src.redirected_reads;
}

void accumulate(NvCache::Stats& total, const NvCache::Stats& src) {
  total.read_hits += src.read_hits;
  total.read_misses += src.read_misses;
  total.write_hits += src.write_hits;
  total.write_misses += src.write_misses;
  total.evictions += src.evictions;
  total.old_evictions += src.old_evictions;
  total.dirty_evictions += src.dirty_evictions;
  total.stalls += src.stalls;
  total.old_captures += src.old_captures;
}

double Metrics::mean_disk_utilization() const {
  if (disk_utilization.empty()) return 0.0;
  double sum = 0.0;
  for (double u : disk_utilization) sum += u;
  return sum / static_cast<double>(disk_utilization.size());
}

double Metrics::max_disk_utilization() const {
  double best = 0.0;
  for (double u : disk_utilization) best = std::max(best, u);
  return best;
}

namespace {

void json_latency(std::ostream& out, const LatencyRecorder& rec) {
  out << "{\"count\":" << rec.count() << ",\"mean_ms\":" << rec.mean()
      << ",\"p50_ms\":" << rec.p50() << ",\"p95_ms\":" << rec.p95()
      << ",\"p99_ms\":" << rec.p99() << ",\"p999_ms\":" << rec.p999()
      << ",\"max_ms\":" << rec.max() << "}";
}

}  // namespace

void Metrics::to_json(std::ostream& out) const {
  out << "{";
  out << "\"elapsed_ms\":" << elapsed_ms;
  out << ",\"requests\":" << requests;
  out << ",\"arrays\":" << arrays;
  out << ",\"total_disks\":" << total_disks;
  out << ",\"events_executed\":" << events_executed;
  out << ",\"response\":{\"all\":";
  json_latency(out, response_all);
  out << ",\"read\":";
  json_latency(out, response_read);
  out << ",\"write\":";
  json_latency(out, response_write);
  out << "}";
  out << ",\"response_per_array\":[";
  for (std::size_t i = 0; i < response_per_array.size(); ++i) {
    if (i) out << ",";
    json_latency(out, response_per_array[i]);
  }
  out << "]";
  out << ",\"disk_op_latency\":[";
  for (std::size_t i = 0; i < disk_op_latency.size(); ++i) {
    if (i) out << ",";
    json_latency(out, disk_op_latency[i]);
  }
  out << "]";
  out << ",\"disk\":{";
  out << "\"reads\":" << disk_totals.reads;
  out << ",\"writes\":" << disk_totals.writes;
  out << ",\"rmws\":" << disk_totals.rmws;
  out << ",\"transient_faults\":" << disk_totals.transient_faults;
  out << ",\"media_faults\":" << disk_totals.media_faults;
  out << ",\"slow_ops\":" << disk_totals.slow_ops;
  out << ",\"slowdown_ms\":" << disk_totals.slowdown_ms;
  out << "}";
  out << ",\"controller\":{";
  out << "\"read_requests\":" << controller.read_requests;
  out << ",\"write_requests\":" << controller.write_requests;
  out << ",\"degraded_reads\":" << controller.degraded_reads;
  out << ",\"degraded_writes\":" << controller.degraded_writes;
  out << ",\"transient_retries\":" << controller.transient_retries;
  out << ",\"retry_exhaustions\":" << controller.retry_exhaustions;
  out << ",\"timeouts_fired\":" << controller.timeouts_fired;
  out << ",\"hedged_reads\":" << controller.hedged_reads;
  out << ",\"hedge_wins\":" << controller.hedge_wins;
  out << ",\"hedge_cancellations\":" << controller.hedge_cancellations;
  out << ",\"redirected_reads\":" << controller.redirected_reads;
  out << "}";
  out << ",\"utilization\":{\"mean_disk\":" << mean_disk_utilization()
      << ",\"max_disk\":" << max_disk_utilization()
      << ",\"channel\":" << channel_utilization
      << ",\"disk_access_cv\":" << disk_access_cv() << "}";
  out << "}";
}

double Metrics::disk_access_cv() const {
  if (disk_accesses.empty()) return 0.0;
  double mean = 0.0;
  for (auto c : disk_accesses) mean += static_cast<double>(c);
  mean /= static_cast<double>(disk_accesses.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (auto c : disk_accesses) {
    const double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= static_cast<double>(disk_accesses.size());
  return std::sqrt(var) / mean;
}

}  // namespace raidsim
