#include "runner/sharded_sim.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "array/cached_controller.hpp"
#include "array/uncached_controller.hpp"
#include "core/simulator.hpp"
#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/sampler.hpp"
#include "obs/tracer.hpp"
#include "sim/event_queue.hpp"

namespace raidsim {

namespace {

/// Live registry counters for the sharded engine; shard threads feed
/// event deltas at batch boundaries (the counter itself is sharded, so
/// concurrent adds stay lock-free).
struct ShardedEngineMetrics {
  Counter& runs = MetricsRegistry::instance().counter(
      "raidsim_engine_sharded_runs_total",
      "Completed sharded-engine simulation runs");
  Counter& events = MetricsRegistry::instance().counter(
      "raidsim_engine_sharded_events_total",
      "Kernel events executed by the sharded engine (all shards)");
  Gauge& sim_ms = MetricsRegistry::instance().gauge(
      "raidsim_engine_sharded_sim_ms_total",
      "Simulated milliseconds advanced by the sharded engine (accumulates)");
};

ShardedEngineMetrics& sharded_metrics() {
  static ShardedEngineMetrics metrics;
  return metrics;
}

}  // namespace

/// One trace record routed to a shard, fully resolved by the coordinator:
/// absolute arrival time (summed in global record order) and array-local
/// addressing, so the shard kernel never touches global routing state.
struct ShardedSimulator::ShardRecord {
  SimTime arrival = 0.0;
  std::int64_t local_block = 0;
  int local_array = 0;  // index into the owning shard's arrays
  int block_count = 1;
  bool is_write = false;
};

struct ShardedSimulator::ArrayState {
  std::unique_ptr<ArrayController> controller;
  int global_index = 0;
  /// Responses accumulated in this array's completion order; merged into
  /// the run totals in global array order, fixing the summation order
  /// regardless of how arrays are packed into shards.
  LatencyRecorder response_all;
  LatencyRecorder response_read;
  LatencyRecorder response_write;
  std::uint64_t requests = 0;
  /// Records routed to this array and not yet completed. Hitting zero is
  /// this array's private quiescence: its background machinery stops.
  std::uint64_t remaining = 0;
};

struct ShardedSimulator::Shard {
  EventQueue eq;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<TimeSeriesSampler> sampler;
  EventId sampler_event = 0;
  Rng rng;
  std::vector<ArrayState> arrays;
  std::vector<ShardRecord> records;
  std::size_t cursor = 0;       // next record to dispatch
  std::uint64_t outstanding = 0;

  // Progress publication: written by the owning shard thread at its
  // batch boundary (relaxed), read by whichever thread aggregates a
  // snapshot. metered_events tracks what has been fed to the registry.
  std::atomic<std::uint64_t> pub_events{0};
  std::atomic<std::uint64_t> pub_done{0};
  std::atomic<double> pub_clock{0.0};
  std::uint64_t metered_events = 0;
};

ShardedSimulator::ShardedSimulator(const SimulationConfig& config,
                                   const TraceGeometry& geometry,
                                   std::uint64_t seed)
    : config_(config), geometry_(geometry) {
  config_.validate();
  blocks_per_array_ = static_cast<std::int64_t>(config_.array_data_disks) *
                      geometry_.blocks_per_disk;
  total_blocks_ = geometry_.total_blocks();
  const int n = config_.array_data_disks;
  array_count_ = (geometry_.data_disks + n - 1) / n;

  shard_count_ = std::clamp(config_.shards, 1, array_count_);
  if (config_.shard_threads > 0) {
    thread_count_ = std::min(config_.shard_threads, shard_count_);
  } else {
    const unsigned hw = std::thread::hardware_concurrency();
    thread_count_ = std::min(shard_count_, hw ? static_cast<int>(hw) : 1);
  }

  Rng root(seed);
  shards_.reserve(static_cast<std::size_t>(shard_count_));
  for (int s = 0; s < shard_count_; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->rng = root.split();
    if (kTracingCompiledIn && config_.obs.tracing)
      shard->tracer = std::make_unique<Tracer>(
          Tracer::Config{config_.obs.max_trace_events});
    shards_.push_back(std::move(shard));
  }

  // Round-robin assignment: shard s owns global arrays s, s+S, s+2S, ...
  for (int a = 0; a < array_count_; ++a) {
    Shard& shard = *shards_[static_cast<std::size_t>(a % shard_count_)];
    const int data_disks = std::min(n, geometry_.data_disks - a * n);
    auto array_cfg =
        config_.array_config(data_disks, geometry_.blocks_per_disk);
    array_cfg.tracer = shard.tracer.get();
    array_cfg.array_index = a;
    ArrayState state;
    state.global_index = a;
    if (config_.cached) {
      state.controller = std::make_unique<CachedController>(
          shard.eq, array_cfg, config_.cache_config());
    } else {
      state.controller =
          std::make_unique<UncachedController>(shard.eq, array_cfg);
    }
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
    }
  }
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::set_artifact_prefix(std::string prefix) {
  artifact_prefix_ = std::move(prefix);
}

Rng& ShardedSimulator::shard_rng(int shard) {
  return shards_.at(static_cast<std::size_t>(shard))->rng;
}

std::pair<int, std::int64_t> ShardedSimulator::route(
    std::int64_t db_block) const {
  const std::int64_t array = db_block / blocks_per_array_;
  return {static_cast<int>(array), db_block - array * blocks_per_array_};
}

void ShardedSimulator::load_records(TraceStream& trace) {
  // The coordinator resolves every record sequentially: arrival times are
  // a prefix sum over the GLOBAL record order, so the floating-point
  // arrival of each request is independent of the partition.
  const bool validate = !trace.prevalidated();
  if (const std::uint64_t hint = trace.size_hint()) {
    const std::size_t per_shard = static_cast<std::size_t>(
        hint / static_cast<std::uint64_t>(shard_count_) + 1);
    for (auto& shard : shards_) shard->records.reserve(per_shard);
  }
  double arrival = 0.0;
  while (auto rec = trace.next()) {
    if (validate &&
        (rec->block_count < 1 || rec->block < 0 ||
         rec->block + rec->block_count > total_blocks_))
      throw std::out_of_range("ShardedSimulator: request outside the database");
    arrival += rec->delta_ms;
    const auto [array, local_block] = route(rec->block);
    Shard& shard = *shards_[static_cast<std::size_t>(array % shard_count_)];
    ShardRecord out;
    out.arrival = arrival;
    out.local_block = local_block;
    out.local_array = array / shard_count_;
    out.block_count = rec->block_count;
    out.is_write = rec->is_write;
    shard.records.push_back(out);
    ++shard.arrays[static_cast<std::size_t>(out.local_array)].remaining;
    ++total_records_;
  }
}

void ShardedSimulator::pump(Shard& shard) {
  if (shard.cursor >= shard.records.size()) return;
  const SimTime when = shard.records[shard.cursor].arrival;
  shard.eq.schedule_at(when, [this, &shard] {
    const ShardRecord& record = shard.records[shard.cursor++];
    dispatch(shard, record);
    pump(shard);
  });
}

void ShardedSimulator::dispatch(Shard& shard, const ShardRecord& record) {
  ArrayState& array =
      shard.arrays[static_cast<std::size_t>(record.local_array)];
  ArrayRequest request;
  request.logical_block = record.local_block;
  request.block_count = record.block_count;
  request.is_write = record.is_write;

  const SimTime arrival = shard.eq.now();
  const ObsPhase host_phase =
      record.is_write ? ObsPhase::kHostWrite : ObsPhase::kHostRead;
  request.obs_id = obs_begin(shard.tracer.get(), host_phase,
                             array.global_index, -1, arrival);
  ++shard.outstanding;
  array.controller->submit(
      request, [this, &shard, &array, arrival, is_write = record.is_write,
                host_phase, obs_id = request.obs_id](SimTime t) {
        obs_end(shard.tracer.get(), obs_id, host_phase, array.global_index,
                -1, t);
        const double response = t - arrival;
        array.response_all.add(response);
        (is_write ? array.response_write : array.response_read).add(response);
        ++array.requests;
        --shard.outstanding;
        assert(array.remaining > 0);
        if (--array.remaining == 0) array.controller->shutdown();
        if (shard.outstanding == 0 && shard.cursor >= shard.records.size() &&
            shard.sampler_event != 0) {
          shard.eq.cancel(shard.sampler_event);
          shard.sampler_event = 0;
        }
      });
}

void ShardedSimulator::schedule_sample_tick(Shard& shard) {
  // Periodic telemetry, per shard (its disks and caches only); mirrors
  // Simulator::schedule_sample_tick.
  shard.sampler_event =
      shard.eq.schedule_in(shard.sampler->interval_ms(), [this, &shard] {
        shard.sampler_event = 0;
        take_sample(shard);
        schedule_sample_tick(shard);
      });
}

void ShardedSimulator::take_sample(Shard& shard) {
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

void ShardedSimulator::run_shard(Shard& shard) {
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
  if (shard.sampler) schedule_sample_tick(shard);
  pump(shard);
  // Zero-record shard (or all of its arrays idle): nothing will ever
  // cancel the sampler from a completion callback.
  if (shard.records.empty() && shard.sampler_event != 0) {
    shard.eq.cancel(shard.sampler_event);
    shard.sampler_event = 0;
  }
  const bool hooked = static_cast<bool>(progress_);
  if (cancel_ == nullptr && !hooked) {
    while (shard.eq.step()) {
    }
  } else {
    for (;;) {
      if (cancel_ != nullptr && cancel_->cancelled())
        throw CancelledError(cancel_->reason());
      const std::size_t ran = shard.eq.run(Simulator::kCancelCheckBatch);
      // Publish this shard's position and feed the live registry the
      // event delta; the aggregate snapshot is emitted by whichever
      // shard crosses a boundary while the emit lock is free.
      const std::uint64_t events = shard.eq.executed();
      sharded_metrics().events.add(events - shard.metered_events);
      shard.metered_events = events;
      shard.pub_events.store(events, std::memory_order_relaxed);
      shard.pub_done.store(
          static_cast<std::uint64_t>(shard.cursor) - shard.outstanding,
          std::memory_order_relaxed);
      shard.pub_clock.store(shard.eq.now(), std::memory_order_relaxed);
      if (hooked) maybe_emit_progress(false);
      if (ran < Simulator::kCancelCheckBatch) break;
    }
  }
  assert(shard.outstanding == 0);
}

void ShardedSimulator::maybe_emit_progress(bool final_frame) {
  if (!progress_) return;
  // try_lock keeps shard kernels from queueing behind a slow hook; the
  // final frame must not be dropped, so it takes the lock for real (no
  // shard worker is running by then).
  if (final_frame) {
    progress_mu_.lock();
  } else if (!progress_mu_.try_lock()) {
    return;
  }
  ProgressSnapshot snap;
  snap.total = total_records_;
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

void ShardedSimulator::dump_flight(const std::string& prefix) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    if (!shard.tracer) continue;
    try {
      export_run_artifacts(prefix + "_shard" + std::to_string(s),
                           *shard.tracer, nullptr);
    } catch (...) {
      // Best effort: a failed dump must not mask the original error.
    }
  }
}

Metrics ShardedSimulator::run(TraceStream& trace) {
  if (ran_)
    throw std::logic_error("ShardedSimulator: run() may only be called once");
  ran_ = true;
  if (trace.geometry().data_disks != geometry_.data_disks ||
      trace.geometry().blocks_per_disk != geometry_.blocks_per_disk)
    throw std::invalid_argument("ShardedSimulator: trace geometry mismatch");

  load_records(trace);

  // Warm each shard's kernel before the drive loop: slot table sized to
  // the steady-state event population (a few in-flight events per disk),
  // so the hot path never reallocates mid-run.
  for (auto& shard : shards_) {
    std::size_t disks = 0;
    for (const auto& array : shard->arrays)
      disks += array.controller->disks().size();
    shard->eq.reserve(8 * disks + 64);
  }

  // Arrays the trace never touches quiesce immediately: their destage
  // timers would otherwise tick forever (the per-array discipline has no
  // global drain to stop them).
  for (auto& shard : shards_)
    for (auto& array : shard->arrays)
      if (array.remaining == 0) array.controller->shutdown();

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

  // First failure by shard order, the SweepRunner discipline.
  for (auto& error : errors)
    if (error) std::rethrow_exception(error);

  if (progress_) {
    // Terminal snapshot: every shard has stopped, so publish exact
    // finals and emit the one guaranteed frame.
    for (auto& shard : shards_) {
      shard->pub_events.store(shard->eq.executed(),
                              std::memory_order_relaxed);
      shard->pub_done.store(
          static_cast<std::uint64_t>(shard->cursor) - shard->outstanding,
          std::memory_order_relaxed);
      shard->pub_clock.store(shard->eq.now(), std::memory_order_relaxed);
    }
    maybe_emit_progress(true);
  }

  if (!artifact_prefix_.empty()) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& shard = *shards_[s];
      if (!shard.tracer) continue;
      export_run_artifacts(artifact_prefix_ + "_shard" + std::to_string(s),
                           *shard.tracer, shard.sampler.get());
    }
  }
  return merge();
}

Metrics ShardedSimulator::merge() {
  Metrics metrics;
  metrics.arrays = array_count_;
  for (const auto& shard : shards_) {
    metrics.elapsed_ms = std::max(metrics.elapsed_ms, shard->eq.now());
    metrics.events_executed += shard->eq.executed();
    sharded_metrics().events.add(shard->eq.executed() -
                                 shard->metered_events);
    shard->metered_events = shard->eq.executed();
    for (const auto& array : shard->arrays)
      metrics.total_disks +=
          static_cast<int>(array.controller->disks().size());
  }
  metrics.disk_accesses.reserve(static_cast<std::size_t>(metrics.total_disks));
  metrics.disk_utilization.reserve(
      static_cast<std::size_t>(metrics.total_disks));
  metrics.channel_utilization_per_array.reserve(
      static_cast<std::size_t>(array_count_));

  // Global array order: every accumulation below runs in the same
  // sequence as the classic engine's finalize loop, whatever the
  // partition, so merged floating-point sums are partition-invariant.
  double channel_util = 0.0;
  for (int a = 0; a < array_count_; ++a) {
    const Shard& shard = *shards_[static_cast<std::size_t>(a % shard_count_)];
    const ArrayState& array =
        shard.arrays[static_cast<std::size_t>(a / shard_count_)];
    assert(array.global_index == a);
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
      channel_util / static_cast<double>(array_count_);
  sharded_metrics().runs.add(1);
  sharded_metrics().sim_ms.add(metrics.elapsed_ms);
  return metrics;
}

Metrics run_sharded_simulation(const SimulationConfig& config,
                               TraceStream& trace, std::uint64_t seed,
                               const std::string& artifact_prefix,
                               const CancelToken* cancel) {
  ShardedSimulator simulator(config, trace.geometry(), seed);
  if (!artifact_prefix.empty()) simulator.set_artifact_prefix(artifact_prefix);
  if (cancel) simulator.set_cancel_token(cancel);
  return simulator.run(trace);
}

}  // namespace raidsim
