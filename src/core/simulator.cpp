#include "core/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "array/cached_controller.hpp"
#include "array/uncached_controller.hpp"
#include "obs/export.hpp"
#include "obs/metrics_registry.hpp"

namespace raidsim {

namespace {

/// Live registry counters for the engine. Registered once; shard workers
/// feed event deltas at batch boundaries (the counter is one relaxed
/// atomic, so concurrent adds stay lock-free), never on the per-event hot
/// path.
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
struct Simulator::FeedRecord {
  SimTime arrival = 0.0;
  std::int64_t local_block = 0;
  int local_array = 0;  // index into the owning shard's arrays
  int block_count = 1;
  bool is_write = false;
};

/// Reader-owned feed state during run(): what the reader has routed since
/// the last commit. Only the thread that called run() touches it.
struct Simulator::Feed {
  double arrival = 0.0;       // arrival-time prefix sum, global order
  std::uint64_t records = 0;  // records read so far
  std::vector<std::vector<FeedRecord>> windows;  // staged, per shard
  std::vector<std::uint64_t> routed;  // staged records, per global array
  bool done = false;                  // the trace has ended
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
  std::uint64_t outstanding = 0;  // host requests submitted, not completed
  /// Records the reader has routed here whose response has not come back
  /// (only per-array quiescence takes responses off it). Zero with the
  /// feed done means the last response has been seen.
  std::uint64_t remaining = 0;
  /// Per-array quiescence: `remaining` is zero but the feed is not done,
  /// so whether the last response has been seen waits for the reader.
  /// Every array starts undecided: none has a record before the first
  /// commit.
  bool undecided = false;
};

struct Simulator::Shard {
  EventQueue eq;
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<TimeSeriesSampler> sampler;
  EventId sampler_event = 0;
  std::vector<ArrayState> arrays;  // global arrays s, s + S, s + 2S, ...
  std::vector<FeedRecord> window;  // routed by the reader, in arrival order
  std::size_t cursor = 0;          // next window record to dispatch
  std::uint64_t outstanding = 0;
  bool feed_done = false;     // every record of the shard dispatched
  bool pump_pending = true;   // the next arrival waits for the reader
  bool parked = false;        // stopped until the next commit
  bool finished = false;      // queue drained with the feed done

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
    state.undecided = per_array_quiescence_;
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
  // Overflow-safe: block + block_count may wrap int64 on crafted input.
  if (record.block_count < 1 || record.block < 0 ||
      record.block > total_blocks_ - record.block_count)
    throw std::out_of_range("Simulator: request outside the database");
  if (!std::isfinite(record.delta_ms) || record.delta_ms < 0.0)
    throw std::out_of_range(
        "Simulator: negative or non-finite inter-arrival delta");
}

void Simulator::refill(TraceStream& trace, Feed& feed) {
  // Arrival times are a prefix sum over the GLOBAL record order, so the
  // floating-point arrival of each request is independent of the
  // partition.
  const std::size_t shard_count = shards_.size();
  for (std::size_t n = 0; n < kWindowPerShard * shard_count; ++n) {
    auto rec = trace.next();
    if (!rec) {
      feed.done = true;
      return;
    }
    validate_record(*rec);
    feed.arrival += rec->delta_ms;
    ++feed.records;
    const auto [array, local_block] = route(rec->block);
    const auto a = static_cast<std::size_t>(array);
    FeedRecord out;
    out.arrival = feed.arrival;
    out.local_block = local_block;
    out.local_array = static_cast<int>(a / shard_count);
    out.block_count = rec->block_count;
    out.is_write = rec->is_write;
    feed.windows[a % shard_count].push_back(out);
    ++feed.routed[a];
  }
}

void Simulator::commit(Feed& feed) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    auto& staged = feed.windows[s];
    if (shard.cursor == shard.window.size()) {
      // Fully dispatched, the common case: take the staged window whole
      // and give the reader the spent buffer back.
      shard.window.swap(staged);
    } else {
      // A scheduled but not yet dispatched arrival is at the cursor, which
      // moves to the front with it.
      shard.window.erase(shard.window.begin(),
                         shard.window.begin() +
                             static_cast<std::ptrdiff_t>(shard.cursor));
      shard.window.insert(shard.window.end(), staged.begin(), staged.end());
    }
    staged.clear();
    shard.cursor = 0;
  }
  for (int a = 0; a < arrays(); ++a) {
    auto& routed = feed.routed[static_cast<std::size_t>(a)];
    array_state(a).remaining += routed;
    routed = 0;
  }
  feed_done_ = feed.done;
  if (feed_done_) progress_total_ = feed.records;
}

void Simulator::park(Shard& shard) {
  shard.parked = true;
  shard.eq.stop();
}

bool Simulator::settle(Shard& shard) {
  bool settled = true;
  for (auto& array : shard.arrays) {
    if (!array.undecided) continue;
    if (array.remaining > 0) {
      array.undecided = false;  // the commit brought it more records
    } else if (feed_done_) {
      array.undecided = false;  // its last response has come
      array.controller->shutdown();
    } else {
      settled = false;
    }
  }
  return settled;
}

void Simulator::pump(Shard& shard) {
  if (shard.cursor == shard.window.size()) {
    if (feed_done_) return end_feed(shard);
    // The next record is still in the trace. Stop before any other event
    // runs, so that the next epoch schedules the arrival with the sequence
    // number it would have taken here.
    shard.pump_pending = true;
    return park(shard);
  }
  shard.eq.schedule_at(shard.window[shard.cursor].arrival, [this, &shard] {
    const FeedRecord& r = shard.window[shard.cursor++];
    dispatch(shard.arrays[static_cast<std::size_t>(r.local_array)],
             r.local_block, r.block_count, r.is_write, nullptr);
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
  ++array.outstanding;
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
        --array.outstanding;
        if (per_array_quiescence_ && --array.remaining == 0) {
          if (feed_done_) {
            array.controller->shutdown();
          } else {
            // Last response or not, only the next commit can tell:
            // nothing else may run before it. shutdown() only cancels the
            // destage tick, so deciding after this callback is exact.
            array.undecided = true;
            park(shard);
          }
        }
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
  shard.parked = false;
  if (!settle(shard)) return;  // an array still waits for the reader
  if (shard.pump_pending) {
    shard.pump_pending = false;
    pump(shard);
  }
  if (!shard.parked) drain(shard);
  shard.finished = !shard.parked;
}

void Simulator::drain(Shard& shard) {
  // Cancellation, progress and the stranded check share one batch
  // boundary, so none of them taxes the per-event hot path.
  for (;;) {
    if (cancel_ != nullptr && cancel_->cancelled())
      throw CancelledError(cancel_->reason());
    const std::uint64_t ran = shard.eq.run(kCancelCheckBatch);
    publish(shard);
    if (progress_) maybe_emit_progress(false);
    if (shard.parked || ran < kCancelCheckBatch) return;
    // Nothing left could complete the outstanding requests, but a
    // periodic timer would keep the queue ticking forever: stop it so
    // the queue drains and check_stranded() reports what is left.
    if (stranded(shard)) quiesce(shard);
  }
}

void Simulator::check_stranded() {
  std::uint64_t total = 0;
  int first = -1;
  for (int a = 0; a < arrays(); ++a) {
    const std::uint64_t left = array_state(a).outstanding;
    if (left != 0 && first < 0) first = a;
    total += left;
  }
  if (total != 0)
    throw StrandedRequestsError(total, first, array_state(first).outstanding);
}

void Simulator::run_epoch(TraceStream& trace, Feed& feed) {
  std::vector<std::size_t> runnable;  // indices into shards_
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (!shards_[s]->finished) runnable.push_back(s);
  // Fullest window first, so the epoch's last shard to finish is a short
  // one. Which thread runs a shard never changes its results.
  const auto backlog = [this](std::size_t s) {
    return shards_[s]->window.size() - shards_[s]->cursor;
  };
  // std::sort with an index tie-break, not std::stable_sort: the stable
  // sort's temporary buffer comes from the nothrow operator new, which
  // the counting allocators in tests and benches do not replace.
  std::sort(runnable.begin(), runnable.end(),
            [&](std::size_t a, std::size_t b) {
              const std::size_t ba = backlog(a), bb = backlog(b);
              return ba != bb ? ba > bb : a < b;
            });
  std::vector<std::exception_ptr> errors(shards_.size());
  std::mutex queue_mutex;
  std::size_t next = 0;
  auto worker = [&] {
    for (;;) {
      std::size_t s = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mutex);
        if (next == runnable.size()) return;
        s = runnable[next++];
      }
      try {
        run_shard(*shards_[s]);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    }
  };
  std::exception_ptr read_error;
  const auto read = [&] {
    if (feed.done) return;
    try {
      refill(trace, feed);
    } catch (...) {
      read_error = std::current_exception();
    }
  };
  if (thread_count_ == 0) {
    worker();
    read();
  } else {
    // The jthreads join before the errors are looked at, on every path.
    const std::size_t pool = std::min<std::size_t>(
        static_cast<std::size_t>(thread_count_), runnable.size());
    std::vector<std::jthread> helpers;
    for (std::size_t t = 0; t < pool; ++t) helpers.emplace_back(worker);
    read();
  }
  // First failure by shard order, the SweepRunner discipline; the read
  // came after the epoch in the serial order, so its failure comes last.
  for (auto& error : errors)
    if (error) std::rethrow_exception(error);
  if (read_error) std::rethrow_exception(read_error);
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

  progress_total_ = trace.size_hint();
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    // Warm the kernel: slot table sized to the steady-state event
    // population (a few in-flight events per disk), so the hot path
    // never reallocates mid-run.
    std::size_t disks = 0;
    for (const auto& array : shard.arrays)
      disks += array.controller->disks().size();
    shard.eq.reserve(8 * disks + 64);
    shard.window.reserve(kWindowPerShard);
  }

  // Read the first window, then per epoch: commit what was read, and read
  // the next window while the shards run. Once the feed is done no shard
  // can park, so the epoch after the commit that ends it ends the run.
  Feed feed;
  feed.windows.resize(shards_.size());
  for (auto& window : feed.windows) window.reserve(kWindowPerShard);
  feed.routed.assign(controllers_.size(), 0);
  refill(trace, feed);
  do {
    // Shards parked on an undecided array poll nothing while the reader
    // runs on, so the reader polls too.
    if (cancel_ != nullptr && cancel_->cancelled())
      throw CancelledError(cancel_->reason());
    commit(feed);
    run_epoch(trace, feed);
  } while (!std::all_of(shards_.begin(), shards_.end(),
                        [](const auto& shard) { return shard->finished; }));
  check_stranded();

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
  // Let in-flight work (and background destage of it) complete; the last
  // response stops the periodic timers, then the queue drains.
  Shard& shard = *shards_[0];
  end_feed(shard);
  drain(shard);
  check_stranded();
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
