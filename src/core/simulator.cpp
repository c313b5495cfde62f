#include "core/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "array/cached_controller.hpp"
#include "array/uncached_controller.hpp"
#include "obs/metrics_registry.hpp"

namespace raidsim {

namespace {

/// Live registry counters for the classic engine. Registered once;
/// updates are gated inside the registry (one relaxed load when it is
/// disabled) and only ever happen at batch boundaries or run end, never
/// on the per-event hot path.
struct ClassicEngineMetrics {
  Counter& runs = MetricsRegistry::instance().counter(
      "raidsim_engine_classic_runs_total",
      "Completed classic-engine simulation runs");
  Counter& events = MetricsRegistry::instance().counter(
      "raidsim_engine_classic_events_total",
      "Kernel events executed by the classic engine");
  Gauge& sim_ms = MetricsRegistry::instance().gauge(
      "raidsim_engine_classic_sim_ms_total",
      "Simulated milliseconds advanced by the classic engine (accumulates)");
};

ClassicEngineMetrics& classic_metrics() {
  static ClassicEngineMetrics metrics;
  return metrics;
}

}  // namespace

Simulator::Simulator(const SimulationConfig& config,
                     const TraceGeometry& geometry)
    : config_(config), geometry_(geometry) {
  config_.validate();
  blocks_per_array_ = static_cast<std::int64_t>(config_.array_data_disks) *
                      geometry_.blocks_per_disk;
  total_blocks_ = geometry_.total_blocks();
  if (kTracingCompiledIn && config_.obs.tracing)
    tracer_ = std::make_unique<Tracer>(
        Tracer::Config{config_.obs.max_trace_events});
  const int n = config_.array_data_disks;
  const int array_count = (geometry_.data_disks + n - 1) / n;
  controllers_.reserve(static_cast<std::size_t>(array_count));
  for (int a = 0; a < array_count; ++a) {
    const int data_disks = std::min(n, geometry_.data_disks - a * n);
    auto array_cfg =
        config_.array_config(data_disks, geometry_.blocks_per_disk);
    array_cfg.tracer = tracer_.get();
    array_cfg.array_index = a;
    if (config_.cached) {
      controllers_.push_back(std::make_unique<CachedController>(
          eq_, array_cfg, config_.cache_config()));
    } else {
      controllers_.push_back(
          std::make_unique<UncachedController>(eq_, array_cfg));
    }
  }
  metrics_.response_per_array.resize(controllers_.size());
  if (config_.obs.sample_interval_ms > 0.0) {
    sampler_ = std::make_unique<TimeSeriesSampler>(
        config_.obs.sample_interval_ms, config_.obs.sampler_capacity);
    std::vector<int> topology;
    topology.reserve(controllers_.size());
    for (const auto& c : controllers_)
      topology.push_back(c->layout().total_disks());
    sampler_->set_topology(std::move(topology));
    schedule_sample_tick();
  }
}

Simulator::~Simulator() = default;

int Simulator::total_disks() const {
  int total = 0;
  for (const auto& c : controllers_) total += c->layout().total_disks();
  return total;
}

std::pair<int, std::int64_t> Simulator::route(std::int64_t db_block) const {
  // Arrays tile the database in blocks_per_array_-sized runs, and the
  // array-local block is simply the remainder: with disk = block / bpd,
  // local_disk = disk % N, offset = block % bpd,
  //   local_disk * bpd + offset == block - (block / (N * bpd)) * N * bpd.
  const std::int64_t array = db_block / blocks_per_array_;
  return {static_cast<int>(array), db_block - array * blocks_per_array_};
}

void Simulator::validate_record(const TraceRecord& record) const {
  if (record.block_count < 1 || record.block < 0 ||
      record.block + record.block_count > total_blocks_)
    throw std::out_of_range("Simulator: request outside the database");
}

void Simulator::dispatch(const TraceRecord& record,
                         std::function<void(SimTime)> on_complete) {
  auto [array, local_block] = route(record.block);
  ArrayRequest request;
  request.logical_block = local_block;
  request.block_count = record.block_count;
  request.is_write = record.is_write;

  const SimTime arrival = eq_.now();
  const ObsPhase host_phase =
      record.is_write ? ObsPhase::kHostWrite : ObsPhase::kHostRead;
  request.obs_id =
      obs_begin(tracer_.get(), host_phase, array, -1, arrival);
  ++outstanding_;
  controllers_[static_cast<std::size_t>(array)]->submit(
      request, [this, arrival, is_write = record.is_write, array,
                host_phase, obs_id = request.obs_id,
                on_complete = std::move(on_complete)](SimTime t) {
        obs_end(tracer_.get(), obs_id, host_phase, array, -1, t);
        const double response = t - arrival;
        metrics_.response_all.add(response);
        (is_write ? metrics_.response_write : metrics_.response_read)
            .add(response);
        metrics_.response_per_array[static_cast<std::size_t>(array)]
            .add(response);
        ++metrics_.requests;
        --outstanding_;
        maybe_shutdown();
        if (on_complete) on_complete(t);
      });
}

void Simulator::submit(const TraceRecord& record,
                       std::function<void(SimTime)> on_complete) {
  validate_record(record);
  dispatch(record, std::move(on_complete));
}

void Simulator::pump(TraceStream& trace) {
  auto record = trace.next();
  if (!record) {
    trace_done_ = true;
    maybe_shutdown();
    return;
  }
  if (validate_records_) validate_record(*record);
  arrival_time_ += record->delta_ms;
  eq_.schedule_at(arrival_time_, [this, rec = *record, &trace] {
    dispatch(rec);
    pump(trace);
  });
}

void Simulator::maybe_shutdown() {
  if (!trace_done_ || outstanding_ > 0) return;
  for (auto& controller : controllers_) controller->shutdown();
  if (sampler_event_ != 0) {
    eq_.cancel(sampler_event_);
    sampler_event_ = 0;
  }
}

void Simulator::schedule_sample_tick() {
  sampler_event_ = eq_.schedule_in(sampler_->interval_ms(), [this] {
    sampler_event_ = 0;
    take_sample();
    schedule_sample_tick();
  });
}

void Simulator::take_sample() {
  TelemetrySample sample;
  sample.t = eq_.now();
  sample.outstanding = outstanding_;
  sample.events_executed = eq_.executed();
  sample.queue_depth.reserve(static_cast<std::size_t>(total_disks()));
  sample.busy_ms.reserve(sample.queue_depth.capacity());
  sample.cache_blocks.reserve(controllers_.size());
  sample.cache_dirty.reserve(controllers_.size());
  for (const auto& controller : controllers_) {
    for (const auto& disk : controller->disks()) {
      sample.queue_depth.push_back(
          static_cast<std::uint32_t>(disk->queue_length()));
      sample.busy_ms.push_back(disk->stats().busy_ms);
    }
    const NvCache* cache = controller->nv_cache();
    sample.cache_blocks.push_back(cache ? cache->size() : 0);
    sample.cache_dirty.push_back(cache ? cache->dirty_count() : 0);
  }
  sampler_->record(std::move(sample));
}

Metrics Simulator::run(TraceStream& trace) {
  if (ran_) throw std::logic_error("Simulator: run() may only be called once");
  ran_ = true;
  if (trace.geometry().data_disks != geometry_.data_disks ||
      trace.geometry().blocks_per_disk != geometry_.blocks_per_disk)
    throw std::invalid_argument("Simulator: trace geometry mismatch");

  validate_records_ = !trace.prevalidated();
  progress_total_ = trace.size_hint();
  pump(trace);
  if (cancel_ == nullptr && !progress_) {
    while (eq_.step()) {
    }
  } else {
    // Cooperative cancellation and progress share one batch boundary:
    // poll the token / fire the hook every kCancelCheckBatch events so a
    // deadline or watchdog stops the run promptly -- and progress frames
    // flow -- without taxing the per-event hot path.
    for (;;) {
      if (cancel_ != nullptr && cancel_->cancelled())
        throw CancelledError(cancel_->reason());
      const std::size_t ran = eq_.run(kCancelCheckBatch);
      if (progress_) emit_progress(false);
      if (ran < kCancelCheckBatch) break;
    }
    if (progress_) emit_progress(true);
  }
  assert(outstanding_ == 0);
  return finalize();
}

void Simulator::emit_progress(bool final_frame) {
  ProgressSnapshot snap;
  snap.events = eq_.executed();
  snap.sim_ms = eq_.now();
  snap.done = metrics_.requests;
  snap.total = progress_total_;
  snap.final_frame = final_frame;
  // Feed the live registry the delta since the last boundary so a scrape
  // mid-run sees engine throughput, not just completed-run totals.
  classic_metrics().events.add(snap.events - metered_events_);
  metered_events_ = snap.events;
  progress_(snap);
}

Metrics Simulator::drain_and_finalize() {
  if (ran_)
    throw std::logic_error("Simulator: already ran/finalized");
  ran_ = true;
  trace_done_ = true;
  // Let in-flight work (and background destage of it) complete, then
  // stop the periodic timers and drain.
  while (outstanding_ > 0 && eq_.step()) {
  }
  maybe_shutdown();
  while (eq_.step()) {
  }
  return finalize();
}

Metrics Simulator::finalize() {
  metrics_.elapsed_ms = eq_.now();
  metrics_.arrays = arrays();
  metrics_.total_disks = total_disks();
  metrics_.events_executed = eq_.executed();
  classic_metrics().events.add(eq_.executed() - metered_events_);
  metered_events_ = eq_.executed();
  classic_metrics().runs.add(1);
  classic_metrics().sim_ms.add(metrics_.elapsed_ms);
  double channel_util = 0.0;
  metrics_.disk_accesses.reserve(static_cast<std::size_t>(metrics_.total_disks));
  metrics_.disk_utilization.reserve(
      static_cast<std::size_t>(metrics_.total_disks));
  metrics_.channel_utilization_per_array.reserve(controllers_.size());
  for (const auto& controller : controllers_) {
    accumulate(metrics_.controller, controller->stats());
    for (const auto& disk : controller->disks()) {
      const auto& stats = disk->stats();
      accumulate(metrics_.disk_totals, stats);
      metrics_.disk_accesses.push_back(stats.ops());
      metrics_.disk_utilization.push_back(
          stats.utilization(metrics_.elapsed_ms));
      metrics_.disk_op_latency.push_back(disk->op_latency());
    }
    const double util = controller->channel().utilization(metrics_.elapsed_ms);
    metrics_.channel_utilization_per_array.push_back(util);
    channel_util += util;
    if (const auto* cache_stats = controller->cache_stats())
      accumulate(metrics_.cache, *cache_stats);
  }
  metrics_.channel_utilization =
      channel_util / static_cast<double>(controllers_.size());
  return metrics_;
}

Metrics run_simulation(const SimulationConfig& config, TraceStream& trace) {
  Simulator simulator(config, trace.geometry());
  return simulator.run(trace);
}

}  // namespace raidsim
