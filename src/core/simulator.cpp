#include "core/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

#include "array/cached_controller.hpp"
#include "array/uncached_controller.hpp"
#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"

namespace raidsim {

namespace {

/// Live registry counters for the engine. Registered once; shard workers
/// feed event deltas at batch boundaries (the counter itself is sharded,
/// so concurrent adds stay lock-free), never on the per-event hot path.
struct EngineMetrics {
  Counter& runs = MetricsRegistry::instance().counter(
      "raidsim_engine_runs_total", "Completed simulation runs");
  Counter& events = MetricsRegistry::instance().counter(
      "raidsim_engine_events_total", "Kernel events executed (all shards)");
  Gauge& sim_ms = MetricsRegistry::instance().gauge(
      "raidsim_engine_sim_ms_total",
      "Simulated milliseconds advanced (accumulates)");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

}  // namespace

/// One trace record routed to a shard, fully resolved on the reading
/// thread: absolute arrival time (summed in global record order) and
/// array-local addressing, so the shard kernel never touches global
/// routing state.
struct Simulator::ShardRecord {
  SimTime arrival = 0.0;
  std::int64_t local_block = 0;
  int local_array = 0;  // index into the owning shard's arrays
  int block_count = 1;
  bool is_write = false;
};

struct Simulator::ArrayState {
  ArrayController* controller = nullptr;
  Shard* shard = nullptr;
  int index = 0;  // global array index
  /// Responses in this array's completion order; merged into the run
  /// totals in global array order, so the summation order does not
  /// depend on how arrays are packed into shards.
  LatencyRecorder response_all;
  LatencyRecorder response_read;
  LatencyRecorder response_write;
  std::uint64_t requests = 0;
  /// Per-array quiescence only: records routed here and not yet
  /// completed; reaching zero stops this array's background machinery.
  std::uint64_t remaining = 0;
};

struct Simulator::Shard {
  EventQueue eq;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<TimeSeriesSampler> sampler;
  EventId sampler_event = 0;
  std::vector<ArrayState> arrays;    // global arrays s, s + S, s + 2S, ...
  std::vector<ShardRecord> records;  // per-array quiescence feed
  std::size_t cursor = 0;            // next record to dispatch
  std::uint64_t outstanding = 0;
  bool feed_done = false;            // every record of the shard dispatched

  // Progress publication: written by the owning shard thread at its
  // batch boundary (relaxed), read by whichever thread aggregates a
  // snapshot. metered_events tracks what has been fed to the registry.
  std::atomic<std::uint64_t> pub_events{0};
  std::atomic<std::uint64_t> pub_done{0};
  std::atomic<double> pub_clock{0.0};
  std::uint64_t metered_events = 0;
};

Simulator::Simulator(const SimulationConfig& config,
                     const TraceGeometry& geometry)
    : config_(config), geometry_(geometry) {
  config_.validate();
  blocks_per_array_ = static_cast<std::int64_t>(config_.array_data_disks) *
                      geometry_.blocks_per_disk;
  total_blocks_ = geometry_.total_blocks();
  per_array_quiescence_ = config_.shards >= 1;
  const int n = config_.array_data_disks;
  const int array_count = (geometry_.data_disks + n - 1) / n;

  const int shard_count =
      per_array_quiescence_ ? std::min(config_.shards, array_count) : 1;
  if (per_array_quiescence_) {
    const unsigned hw = std::thread::hardware_concurrency();
    const int wanted = config_.shard_threads > 0 ? config_.shard_threads
                       : hw                      ? static_cast<int>(hw)
                                                 : 1;
    thread_count_ = std::min(wanted, shard_count);
  }

  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    auto shard = std::make_unique<Shard>();
    if (kTracingCompiledIn && config_.obs.tracing)
      shard->tracer = std::make_unique<Tracer>(
          Tracer::Config{config_.obs.max_trace_events});
    shards_.push_back(std::move(shard));
  }

  controllers_.reserve(static_cast<std::size_t>(array_count));
  for (int a = 0; a < array_count; ++a) {
    Shard& shard = *shards_[static_cast<std::size_t>(a % shard_count)];
    const int data_disks = std::min(n, geometry_.data_disks - a * n);
    auto array_cfg =
        config_.array_config(data_disks, geometry_.blocks_per_disk);
    array_cfg.tracer = shard.tracer.get();
    array_cfg.array_index = a;
    if (config_.cached) {
      controllers_.push_back(std::make_unique<CachedController>(
          shard.eq, array_cfg, config_.cache_config()));
    } else {
      controllers_.push_back(
          std::make_unique<UncachedController>(shard.eq, array_cfg));
    }
    ArrayState state;
    state.controller = controllers_.back().get();
    state.shard = &shard;
    state.index = a;
    shard.arrays.push_back(std::move(state));
  }

  if (config_.obs.sample_interval_ms > 0.0) {
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      shard.sampler = std::make_unique<TimeSeriesSampler>(
          config_.obs.sample_interval_ms, config_.obs.sampler_capacity);
      std::vector<int> topology;
      topology.reserve(shard.arrays.size());
      for (const auto& array : shard.arrays)
        topology.push_back(array.controller->layout().total_disks());
      shard.sampler->set_topology(std::move(topology));
      schedule_sample_tick(shard);
    }
  }
}

Simulator::~Simulator() = default;

int Simulator::total_disks() const {
  int total = 0;
  for (const auto& c : controllers_) total += c->layout().total_disks();
  return total;
}

Simulator::ArrayState& Simulator::array_state(int array) {
  const auto s = static_cast<std::size_t>(array) % shards_.size();
  const auto i = static_cast<std::size_t>(array) / shards_.size();
  return shards_[s]->arrays[i];
}

EventQueue& Simulator::event_queue(int array) {
  return array_state(array).shard->eq;
}

const Tracer* Simulator::tracer() const { return shards_[0]->tracer.get(); }

const TimeSeriesSampler* Simulator::sampler() const {
  return shards_[0]->sampler.get();
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

void Simulator::load_records(TraceStream& trace) {
  // Arrival times are a prefix sum over the GLOBAL record order, so the
  // floating-point arrival of each request is independent of the
  // partition.
  const std::size_t shard_count = shards_.size();
  if (const std::uint64_t hint = trace.size_hint()) {
    const auto per_shard = static_cast<std::size_t>(hint / shard_count + 1);
    for (auto& shard : shards_) shard->records.reserve(per_shard);
  }
  double arrival = 0.0;
  while (auto rec = trace.next()) {
    if (validate_records_) validate_record(*rec);
    arrival += rec->delta_ms;
    const auto [array, local_block] = route(rec->block);
    const auto a = static_cast<std::size_t>(array);
    Shard& shard = *shards_[a % shard_count];
    ShardRecord out;
    out.arrival = arrival;
    out.local_block = local_block;
    out.local_array = static_cast<int>(a / shard_count);
    out.block_count = rec->block_count;
    out.is_write = rec->is_write;
    shard.records.push_back(out);
    ++shard.arrays[a / shard_count].remaining;
    ++progress_total_;
  }
}

void Simulator::pump(Shard& shard) {
  if (per_array_quiescence_) {
    if (shard.cursor == shard.records.size()) return end_feed(shard);
    shard.eq.schedule_at(shard.records[shard.cursor].arrival, [this, &shard] {
      const ShardRecord& r = shard.records[shard.cursor++];
      dispatch(shard.arrays[static_cast<std::size_t>(r.local_array)],
               r.local_block, r.block_count, r.is_write, nullptr);
      pump(shard);
    });
    return;
  }
  // Streaming feed: one shard holds every array.
  auto record = stream_->next();
  if (!record) return end_feed(shard);
  if (validate_records_) validate_record(*record);
  arrival_time_ += record->delta_ms;
  shard.eq.schedule_at(arrival_time_, [this, &shard, rec = *record] {
    const auto [array, local_block] = route(rec.block);
    dispatch(shard.arrays[static_cast<std::size_t>(array)], local_block,
             rec.block_count, rec.is_write, nullptr);
    pump(shard);
  });
}

void Simulator::end_feed(Shard& shard) {
  shard.feed_done = true;
  if (shard.outstanding == 0) quiesce(shard);
}

void Simulator::dispatch(ArrayState& array, std::int64_t local_block,
                         int block_count, bool is_write,
                         std::function<void(SimTime)> on_complete) {
  Shard& shard = *array.shard;
  ArrayRequest request;
  request.logical_block = local_block;
  request.block_count = block_count;
  request.is_write = is_write;

  const SimTime arrival = shard.eq.now();
  const ObsPhase host_phase =
      is_write ? ObsPhase::kHostWrite : ObsPhase::kHostRead;
  request.obs_id =
      obs_begin(shard.tracer.get(), host_phase, array.index, -1, arrival);
  ++shard.outstanding;
  array.controller->submit(
      request, [this, &array, arrival, is_write, host_phase,
                obs_id = request.obs_id,
                on_complete = std::move(on_complete)](SimTime t) {
        Shard& shard = *array.shard;
        obs_end(shard.tracer.get(), obs_id, host_phase, array.index, -1, t);
        const double response = t - arrival;
        array.response_all.add(response);
        (is_write ? array.response_write : array.response_read).add(response);
        ++array.requests;
        if (per_array_quiescence_ && --array.remaining == 0)
          array.controller->shutdown();
        if (--shard.outstanding == 0 && shard.feed_done) quiesce(shard);
        if (on_complete) on_complete(t);
      });
}

void Simulator::submit(const TraceRecord& record,
                       std::function<void(SimTime)> on_complete) {
  if (per_array_quiescence_)
    throw std::logic_error("Simulator: submit() requires shards = 0");
  validate_record(record);
  const auto [array, local_block] = route(record.block);
  dispatch(array_state(array), local_block, record.block_count,
           record.is_write, std::move(on_complete));
}

void Simulator::quiesce(Shard& shard) {
  for (auto& array : shard.arrays) array.controller->shutdown();
  if (shard.sampler_event != 0) {
    shard.eq.cancel(shard.sampler_event);
    shard.sampler_event = 0;
  }
}

bool Simulator::stranded(const Shard& shard) const {
  if (!shard.feed_done || shard.outstanding == 0) return false;
  for (const auto& array : shard.arrays)
    if (array.controller->holds_work()) return false;
  return true;
}

void Simulator::schedule_sample_tick(Shard& shard) {
  shard.sampler_event =
      shard.eq.schedule_in(shard.sampler->interval_ms(), [this, &shard] {
        shard.sampler_event = 0;
        take_sample(shard);
        schedule_sample_tick(shard);
      });
}

void Simulator::take_sample(Shard& shard) {
  // Periodic telemetry, per shard (its disks and caches only).
  TelemetrySample sample;
  sample.t = shard.eq.now();
  sample.outstanding = shard.outstanding;
  sample.events_executed = shard.eq.executed();
  std::size_t disks = 0;
  for (const auto& array : shard.arrays)
    disks += array.controller->disks().size();
  sample.queue_depth.reserve(disks);
  sample.busy_ms.reserve(disks);
  sample.cache_blocks.reserve(shard.arrays.size());
  sample.cache_dirty.reserve(shard.arrays.size());
  for (const auto& array : shard.arrays) {
    for (const auto& disk : array.controller->disks()) {
      sample.queue_depth.push_back(
          static_cast<std::uint32_t>(disk->queue_length()));
      sample.busy_ms.push_back(disk->stats().busy_ms);
    }
    const NvCache* cache = array.controller->nv_cache();
    sample.cache_blocks.push_back(cache ? cache->size() : 0);
    sample.cache_dirty.push_back(cache ? cache->dirty_count() : 0);
  }
  shard.sampler->record(std::move(sample));
}

void Simulator::run_shard(Shard& shard) {
  // Debug-mode ownership window for the shard's op arena: between bind
  // and release, only this worker thread may touch the shard's op state
  // (construction before and teardown after the run happen on the main
  // thread, after a join, and pass the check while unbound). The guard
  // releases on the CancelledError unwind path too.
  struct OwnerGuard {
    OpArena& arena;
    explicit OwnerGuard(OpArena& a) : arena(a) { arena.bind_owner(); }
    ~OwnerGuard() { arena.release_owner(); }
  } owner_guard(shard.eq.op_arena());
  // Warm the kernel: slot table sized to the steady-state event
  // population (a few in-flight events per disk), so the hot path never
  // reallocates mid-run.
  std::size_t disks = 0;
  for (const auto& array : shard.arrays)
    disks += array.controller->disks().size();
  shard.eq.reserve(8 * disks + 64);
  pump(shard);
  // Cancellation, progress and the stranded check share one batch
  // boundary, so none of them taxes the per-event hot path.
  for (;;) {
    if (cancel_ != nullptr && cancel_->cancelled())
      throw CancelledError(cancel_->reason());
    const std::uint64_t ran = shard.eq.run(kCancelCheckBatch);
    publish(shard);
    if (progress_) maybe_emit_progress(false);
    if (ran < kCancelCheckBatch) break;
    // Nothing left could complete the outstanding requests, but a
    // periodic timer would keep the queue ticking forever: stop it so
    // the queue drains and the check below reports the stranded count.
    if (stranded(shard)) quiesce(shard);
  }
  if (shard.outstanding != 0) throw StrandedRequestsError(shard.outstanding);
}

void Simulator::publish(Shard& shard) {
  // Feed the live registry the event delta and publish this shard's
  // position for the aggregate progress snapshot.
  const std::uint64_t events = shard.eq.executed();
  engine_metrics().events.add(events - shard.metered_events);
  shard.metered_events = events;
  std::uint64_t done = 0;
  for (const auto& array : shard.arrays) done += array.requests;
  shard.pub_events.store(events, std::memory_order_relaxed);
  shard.pub_done.store(done, std::memory_order_relaxed);
  shard.pub_clock.store(shard.eq.now(), std::memory_order_relaxed);
}

void Simulator::maybe_emit_progress(bool final_frame) {
  // try_lock keeps shard kernels from queueing behind a slow hook; the
  // final frame must not be dropped, so it takes the lock for real (no
  // shard worker is running by then).
  if (final_frame) {
    progress_mu_.lock();
  } else if (!progress_mu_.try_lock()) {
    return;
  }
  ProgressSnapshot snap;
  snap.total = progress_total_;
  snap.final_frame = final_frame;
  // Monotone across emissions: the emit lock orders them, and per-shard
  // published values only grow.
  for (const auto& shard : shards_) {
    snap.events += shard->pub_events.load(std::memory_order_relaxed);
    snap.done += shard->pub_done.load(std::memory_order_relaxed);
    snap.sim_ms = std::max(snap.sim_ms,
                           shard->pub_clock.load(std::memory_order_relaxed));
  }
  progress_(snap);
  progress_mu_.unlock();
}

std::string Simulator::artifact_prefix(const std::string& prefix,
                                       std::size_t shard) const {
  if (config_.shards == 0) return prefix;
  return prefix + "_shard" + std::to_string(shard);
}

void Simulator::dump_flight(const std::string& prefix) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->tracer) continue;
    try {
      export_run_artifacts(artifact_prefix(prefix, s), *shards_[s]->tracer,
                           nullptr);
    } catch (...) {
      // Best effort: a failed dump must not mask the original error.
    }
  }
}

Metrics Simulator::run(TraceStream& trace) {
  if (ran_) throw std::logic_error("Simulator: run() may only be called once");
  ran_ = true;
  if (trace.geometry().data_disks != geometry_.data_disks ||
      trace.geometry().blocks_per_disk != geometry_.blocks_per_disk)
    throw std::invalid_argument("Simulator: trace geometry mismatch");

  validate_records_ = !trace.prevalidated();
  if (per_array_quiescence_) {
    load_records(trace);
    // Arrays the trace never touches quiesce at once: no response of
    // theirs will ever stop their destage timers.
    for (auto& shard : shards_)
      for (auto& array : shard->arrays)
        if (array.remaining == 0) array.controller->shutdown();
  } else {
    stream_ = &trace;
    progress_total_ = trace.size_hint();
  }

  std::vector<std::exception_ptr> errors(shards_.size());
  std::mutex queue_mutex;
  std::size_t next = 0;
  auto worker = [&] {
    for (;;) {
      std::size_t index;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        if (next >= shards_.size()) return;
        index = next++;
      }
      try {
        run_shard(*shards_[index]);
      } catch (...) {
        errors[index] = std::current_exception();
      }
    }
  };
  const std::size_t pool = std::min<std::size_t>(
      static_cast<std::size_t>(thread_count_), shards_.size());
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  stream_ = nullptr;

  // First failure by shard order, the SweepRunner discipline.
  for (auto& error : errors)
    if (error) std::rethrow_exception(error);

  if (progress_) {
    // Every shard has stopped: publish exact finals and emit the one
    // guaranteed frame.
    for (auto& shard : shards_) publish(*shard);
    maybe_emit_progress(true);
  }

  if (!artifact_prefix_.empty()) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& shard = *shards_[s];
      if (!shard.tracer) continue;
      export_run_artifacts(artifact_prefix(artifact_prefix_, s),
                           *shard.tracer, shard.sampler.get());
    }
  }
  return finalize();
}

Metrics Simulator::drain_and_finalize() {
  if (per_array_quiescence_)
    throw std::logic_error(
        "Simulator: drain_and_finalize() requires shards = 0");
  if (ran_) throw std::logic_error("Simulator: already ran/finalized");
  ran_ = true;
  // Let in-flight work (and background destage of it) complete, then
  // stop the periodic timers and drain.
  Shard& shard = *shards_[0];
  shard.feed_done = true;
  while (shard.outstanding > 0 && shard.eq.step()) {
  }
  if (shard.outstanding == 0) quiesce(shard);
  while (shard.eq.step()) {
  }
  return finalize();
}

Metrics Simulator::finalize() {
  Metrics metrics;
  metrics.arrays = arrays();
  metrics.total_disks = total_disks();
  for (auto& shard : shards_) {
    metrics.elapsed_ms = std::max(metrics.elapsed_ms, shard->eq.now());
    metrics.events_executed += shard->eq.executed();
    engine_metrics().events.add(shard->eq.executed() -
                                shard->metered_events);
    shard->metered_events = shard->eq.executed();
  }
  metrics.disk_accesses.reserve(static_cast<std::size_t>(metrics.total_disks));
  metrics.disk_utilization.reserve(
      static_cast<std::size_t>(metrics.total_disks));
  metrics.channel_utilization_per_array.reserve(controllers_.size());

  // Global array order: every accumulation below runs in the same
  // sequence whatever the partition, so merged floating-point sums are
  // partition-invariant.
  double channel_util = 0.0;
  for (int a = 0; a < arrays(); ++a) {
    const ArrayState& array = array_state(a);
    metrics.response_all.merge(array.response_all);
    metrics.response_read.merge(array.response_read);
    metrics.response_write.merge(array.response_write);
    metrics.response_per_array.push_back(array.response_all);
    metrics.requests += array.requests;
    accumulate(metrics.controller, array.controller->stats());
    for (const auto& disk : array.controller->disks()) {
      const auto& stats = disk->stats();
      accumulate(metrics.disk_totals, stats);
      metrics.disk_accesses.push_back(stats.ops());
      metrics.disk_utilization.push_back(
          stats.utilization(metrics.elapsed_ms));
      metrics.disk_op_latency.push_back(disk->op_latency());
    }
    const double util =
        array.controller->channel().utilization(metrics.elapsed_ms);
    metrics.channel_utilization_per_array.push_back(util);
    channel_util += util;
    if (const auto* cache_stats = array.controller->cache_stats())
      accumulate(metrics.cache, *cache_stats);
  }
  metrics.channel_utilization =
      channel_util / static_cast<double>(controllers_.size());
  engine_metrics().runs.add(1);
  engine_metrics().sim_ms.add(metrics.elapsed_ms);
  return metrics;
}

Metrics run_simulation(const SimulationConfig& config, TraceStream& trace) {
  Simulator simulator(config, trace.geometry());
  return simulator.run(trace);
}

}  // namespace raidsim
