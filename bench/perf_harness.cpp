// Performance harness: times the event kernel (schedule/cancel/step
// churn), a fixed end-to-end RAID5 + Mirror replay, the op-state arena
// on an op-churn loop (with a fatal zero-heap steady-state gate),
// sharded runs at several shard/thread counts (with a bit-identity
// check against one shard), the NV-cache storage, the latency-histogram
// recorder (per-op add and sharded merge + tail quantiles), trace
// loading (text vs binary), and sweep throughput at 1/2/4/hw threads.
// Emits machine-readable BENCH_perf.json so later changes have a perf
// trajectory to regress against (see docs/performance.md for the
// schema).
//
// Usage: perf_harness [--quick] [--out=<path>] [--threads=<n>]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/nv_cache.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "obs/metrics_registry.hpp"
#include "runner/sweep_runner.hpp"
#include "sim/event_queue.hpp"
#include "svc/supervisor.hpp"
#include "trace/trace_io.hpp"
#include "util/arena.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// Global-heap traffic counter: the harness replaces the default
// operator new/delete with counting versions so the allocation section
// can report the steady-state global-heap allocation rate alongside the
// op-state arena's own counter (the fatal zero-heap gate keys on the
// arena counter; this one is context).
static std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using raidsim::EventId;
using raidsim::SimTime;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Steady-state churn: keep `width` events pending; each event
/// reschedules itself at a pseudo-random future time and cancels a
/// sibling every fourth execution -- the mix the simulator's disk/channel
/// machinery produces. The captured payload mimics a completion
/// continuation (a few scalars + a std::function).
double churn_events_per_sec(std::uint64_t total_events, int width) {
  raidsim::EventQueue queue;
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  auto next_delay = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((lcg >> 33) & 0x3ff) * 0.25;
  };
  std::uint64_t executed = 0;
  std::vector<EventId> cancel_pool;
  std::function<void(SimTime)> sink = [](SimTime) {};

  std::function<void()> tick = [&] {
    ++executed;
    if (executed + static_cast<std::uint64_t>(width) <= total_events) {
      const EventId id = queue.schedule_in(
          next_delay(), [&tick, t = queue.now(), cont = sink] {
            (void)t;
            (void)cont;
            tick();
          });
      if ((executed & 3u) == 0) {
        cancel_pool.push_back(id);
      } else if (!cancel_pool.empty() && (executed & 15u) == 1) {
        queue.cancel(cancel_pool.back());
        cancel_pool.pop_back();
        queue.schedule_in(next_delay(), [&tick] { tick(); });
      }
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < width; ++i) queue.schedule_in(next_delay(), tick);
  while (queue.step()) {
  }
  const double elapsed = seconds_since(start);
  return static_cast<double>(queue.executed()) / elapsed;
}

struct ReplayResult {
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double mean_response_ms = 0.0;
};

ReplayResult timed_replay(const raidsim::SimulationConfig& config,
                          const std::string& trace, double scale,
                          raidsim::Metrics* out_metrics = nullptr,
                          int reps = 1) {
  // Best of `reps`: the replay is deterministic (identical metrics every
  // repetition), so the fastest wall time is the least-contended sample
  // of the same computation -- the same trick the trace-load bench uses.
  // The CI regression guard keys on these rates, so they need to be
  // samples of a tight distribution, not of scheduler luck.
  ReplayResult best;
  for (int rep = 0; rep < reps; ++rep) {
    raidsim::SweepJob job;
    job.config = config;
    job.trace = trace;
    job.workload.scale = scale;
    const auto start = std::chrono::steady_clock::now();
    const raidsim::Metrics m = raidsim::run_sweep_job(job);
    ReplayResult r;
    r.wall_ms = seconds_since(start) * 1e3;
    r.events = m.events_executed;
    r.events_per_sec = static_cast<double>(m.events_executed) /
                       (r.wall_ms / 1e3);
    r.mean_response_ms = m.mean_response_ms();
    if (rep == 0 || r.events_per_sec > best.events_per_sec) {
      best = r;
      if (out_metrics) *out_metrics = m;
    }
  }
  return best;
}

/// Op-state churn: keep a window of live ops; each step allocates one,
/// fans its handle out the way an RMW chain copies its completion into
/// barrier/gate callbacks, then retires a pseudo-random window slot.
/// Steady state exercises exactly the allocate / copy / release path the
/// controllers run per request. Sized for the 512-byte class (the
/// in-flight disk op class).
struct ChurnOp {
  std::array<char, 480> payload;
};

constexpr int kOpWindow = 256;

struct OpChurnResult {
  double ops_per_sec = 0.0;
  /// OpArena::heap_allocations() delta over the measured (post-warmup)
  /// segment -- the fatal zero-heap gate.
  std::uint64_t op_state_heap_allocs_steady = 0;
  /// operator new delta over the same segment (whole process, context).
  std::uint64_t global_heap_allocs_steady = 0;
};

OpChurnResult op_churn(std::uint64_t total_ops) {
  raidsim::OpArena arena;
  std::vector<raidsim::OpRef<ChurnOp>> window(kOpWindow);
  std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
  std::uint64_t sink = 0;
  auto step = [&](std::uint64_t i) {
    auto op = raidsim::make_op<ChurnOp>(arena);
    op->payload[0] = static_cast<char>(i);
    // Four handle copies: the read barrier, the write gate, the parity
    // countdown, and the completion continuation of a typical RMW chain.
    auto a = op;
    auto b = a;
    auto c = b;
    auto d = c;
    sink += static_cast<std::uint64_t>(d->payload[0]) & 1u;
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    window[(lcg >> 33) % kOpWindow] = std::move(op);
  };
  for (std::uint64_t i = 0; i < total_ops / 10; ++i) step(i);  // warmup
  const std::uint64_t arena_before = arena.heap_allocations();
  const std::uint64_t global_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total_ops; ++i) step(i);
  const double elapsed = seconds_since(start);
  if (sink == UINT64_MAX) std::abort();  // keep the loop honest
  OpChurnResult r;
  r.ops_per_sec = static_cast<double>(total_ops) / elapsed;
  r.op_state_heap_allocs_steady = arena.heap_allocations() - arena_before;
  r.global_heap_allocs_steady =
      g_heap_allocs.load(std::memory_order_relaxed) - global_before;
  return r;
}

/// The per-request cache traffic a cached controller generates: probe,
/// install on miss, dirty on write, periodic destage sweeps once half
/// the cache is dirty. Deterministic LCG address stream over 3x the
/// cache capacity (the controller sees array-local block numbers with
/// exactly this kind of reuse).
double cache_ops_per_sec(std::uint64_t total_ops, std::size_t capacity) {
  raidsim::NvCache cache(capacity, true);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  const std::uint64_t range = static_cast<std::uint64_t>(capacity) * 3;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t op = 0; op < total_ops; ++op) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto block = static_cast<std::int64_t>((lcg >> 24) % range);
    const std::uint64_t roll = (lcg >> 16) & 15u;
    if (roll < 9) {
      if (!cache.read(block)) cache.insert_clean(block);
    } else {
      cache.write(block);
    }
    if (cache.dirty_count() * 2 > capacity) {
      for (const std::int64_t dirty : cache.collect_dirty()) {
        cache.begin_destage(dirty);
        cache.end_destage(dirty);
      }
    }
  }
  return static_cast<double>(total_ops) / seconds_since(start);
}

/// Latency-histogram hot path (fail-slow work): every disk op and every
/// host response feeds a log-bucketed LatencyRecorder, and the sharded
/// engine merges per-shard recorders at the end of a run. Measures the
/// per-sample add cost and the merge + tail-quantile pass.
struct HistogramBench {
  std::uint64_t adds = 0;
  double adds_per_sec = 0.0;
  double merge_quantile_per_sec = 0.0;  // merge 16 shards + p50..p999
};

HistogramBench histogram_bench(std::uint64_t total_adds) {
  constexpr int kShards = 16;
  std::vector<raidsim::LatencyRecorder> shards(kShards);
  std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total_adds; ++i) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    // Log-uniform-ish latencies spanning sub-ms to tens of seconds: the
    // recorder's whole bucket range stays hot.
    const double ms =
        static_cast<double>((lcg >> 44) + 1) / 16.0;  // ~0.06..65536 ms
    shards[i & (kShards - 1)].add(ms);
  }
  HistogramBench r;
  r.adds = total_adds;
  r.adds_per_sec = static_cast<double>(total_adds) / seconds_since(start);

  const int rounds = 400;
  double sink = 0.0;
  const auto mstart = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    raidsim::LatencyRecorder merged;
    for (const auto& s : shards) merged.merge(s);
    sink += merged.p50() + merged.p95() + merged.p99() + merged.p999();
  }
  const double melapsed = seconds_since(mstart);
  if (sink < 0.0) std::abort();  // keep the loop honest
  r.merge_quantile_per_sec = static_cast<double>(rounds) / melapsed;
  return r;
}

/// Telemetry-plane cost: the same replay with the metrics registry
/// disabled and no progress hook (the engines' fast path) versus
/// enabled plus a no-op hook (batch-boundary path, registry feeds, hook
/// dispatch). Also asserts the two runs' metrics are bit-identical --
/// telemetry is passive or it is broken.
struct TelemetryBench {
  double events_per_sec_off = 0.0;
  double events_per_sec_on = 0.0;
  double overhead_pct = 0.0;
  bool identical = false;
};

TelemetryBench telemetry_bench(const raidsim::SimulationConfig& config,
                               const std::string& trace, double scale,
                               int reps) {
  auto run_once = [&](bool telemetry, raidsim::Metrics* out) {
    raidsim::SweepJob job;
    job.config = config;
    job.trace = trace;
    job.workload.scale = scale;
    if (telemetry)
      job.progress = [](const raidsim::ProgressSnapshot&) {};
    raidsim::MetricsRegistry::instance().set_enabled(telemetry);
    const auto start = std::chrono::steady_clock::now();
    const raidsim::Metrics m = raidsim::run_sweep_job(job);
    const double elapsed = seconds_since(start);
    raidsim::MetricsRegistry::instance().set_enabled(true);
    if (out) *out = m;
    return static_cast<double>(m.events_executed) / elapsed;
  };

  TelemetryBench r;
  raidsim::Metrics off_metrics, on_metrics;
  for (int rep = 0; rep < reps; ++rep) {
    r.events_per_sec_off =
        std::max(r.events_per_sec_off, run_once(false, &off_metrics));
    r.events_per_sec_on =
        std::max(r.events_per_sec_on, run_once(true, &on_metrics));
  }
  r.overhead_pct =
      r.events_per_sec_on > 0.0
          ? (r.events_per_sec_off / r.events_per_sec_on - 1.0) * 1e2
          : 0.0;
  std::ostringstream off_json, on_json;
  off_metrics.to_json(off_json);
  on_metrics.to_json(on_json);
  r.identical = off_json.str() == on_json.str();
  return r;
}

/// Service saturation in-process (the socketless core of
/// ext_service_saturation): a burst of distinct jobs against a small
/// admission queue. Goodput and shed counts come from the supervisor's
/// own terminal statuses, so these are the numbers the daemon would
/// report.
struct ServiceBench {
  int offered = 0;
  int completed_ok = 0;
  int shed = 0;
  double wall_ms = 0.0;
  double goodput_per_sec = 0.0;
  double shed_rate_per_sec = 0.0;
  double shed_pct = 0.0;
};

ServiceBench service_bench(int offered, double scale) {
  using raidsim::svc::JobRequest;
  using raidsim::svc::JobResult;
  using raidsim::svc::JobStatus;
  using raidsim::svc::Supervisor;

  ServiceBench r;
  r.offered = offered;
  std::atomic<int> ok{0}, shed{0}, done{0};
  const auto start = std::chrono::steady_clock::now();
  {
    Supervisor sup({.workers = 2, .queue_capacity = 4});
    for (int i = 0; i < offered; ++i) {
      JobRequest request;
      request.trace = "trace2";
      request.workload.scale = scale;
      request.workload.seed = static_cast<std::uint64_t>(i + 1);
      request.no_cache = true;
      request.id = "svc" + std::to_string(i);
      sup.submit(std::move(request), [&](const JobResult& result) {
        if (result.status == JobStatus::kOk) ok.fetch_add(1);
        if (result.status == JobStatus::kOverloaded) shed.fetch_add(1);
        done.fetch_add(1);
      });
    }
    while (done.load() < offered)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  r.wall_ms = seconds_since(start) * 1e3;
  r.completed_ok = ok.load();
  r.shed = shed.load();
  const double wall_s = r.wall_ms / 1e3;
  r.goodput_per_sec = wall_s > 0.0 ? r.completed_ok / wall_s : 0.0;
  r.shed_rate_per_sec = wall_s > 0.0 ? r.shed / wall_s : 0.0;
  r.shed_pct = offered > 0 ? 1e2 * r.shed / offered : 0.0;
  return r;
}

struct TraceLoadResult {
  std::uint64_t records = 0;
  double records_per_sec = 0.0;
};

TraceLoadResult timed_trace_load(raidsim::TraceStream& stream) {
  const auto start = std::chrono::steady_clock::now();
  TraceLoadResult r;
  std::int64_t sum = 0;
  while (auto rec = stream.next()) {
    sum += rec->block;
    ++r.records;
  }
  const double elapsed = seconds_since(start);
  // Keep the loop honest: fold the checksum into the denominator noise.
  if (sum == INT64_MIN) std::abort();
  r.records_per_sec = static_cast<double>(r.records) / elapsed;
  return r;
}

struct SweepPoint {
  int threads = 0;
  double wall_ms = 0.0;
  double runs_per_sec = 0.0;
};

SweepPoint timed_sweep(int threads, int runs,
                       const raidsim::SimulationConfig& config,
                       double scale) {
  raidsim::SweepRunner runner(threads);
  for (int i = 0; i < runs; ++i) {
    raidsim::SweepJob job;
    job.config = config;
    job.trace = i % 2 ? "trace2" : "trace1";
    job.workload.scale = scale;
    job.label = "run" + std::to_string(i);
    runner.submit(std::move(job));
  }
  const auto start = std::chrono::steady_clock::now();
  const auto results = runner.run_all();
  SweepPoint p;
  p.threads = runner.threads();
  p.wall_ms = seconds_since(start) * 1e3;
  p.runs_per_sec = static_cast<double>(results.size()) / (p.wall_ms / 1e3);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raidsim;

  bool quick = false;
  std::string out_path = "BENCH_perf.json";
  int max_threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--threads=", 0) == 0) {
      max_threads = std::atoi(arg.c_str() + 10);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --quick --out=<path> --threads=<n>\n";
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  if (max_threads <= 0) max_threads = hw ? static_cast<int>(hw) : 1;

  std::cout << "== perf_harness ==\n"
            << "kernel churn + fixed RAID5/Mirror replay + sweep scaling; "
            << (quick ? "quick" : "full") << " mode, "
            << max_threads << " max threads\n\n";

  // ------------------------------------------------------ kernel bench
  const std::uint64_t churn_events = quick ? 400'000 : 4'000'000;
  const int churn_width = 512;
  // Warm the allocator once so first-touch page faults do not skew the
  // measured runs.
  churn_events_per_sec(50'000, churn_width);
  // Best of N samples in full mode: the CI guard keys on these rates,
  // and a single sample on a contended host measures scheduler luck.
  const int bench_reps = quick ? 1 : 3;
  auto best_of = [&](auto measure) {
    double best = 0.0;
    for (int rep = 0; rep < bench_reps; ++rep)
      best = std::max(best, measure());
    return best;
  };
  const double kernel_eps =
      best_of([&] { return churn_events_per_sec(churn_events, churn_width); });

  TablePrinter kernel_table({"kernel", "events/sec"});
  kernel_table.add_row(
      {"calendar queue", TablePrinter::num(kernel_eps / 1e6, 2) + " M"});
  kernel_table.print(std::cout);
  std::cout << "\n";

  // -------------------------------------------------- end-to-end bench
  const double scale1 = quick ? 0.02 : 0.1;
  const double scale2 = quick ? 0.1 : 0.5;

  SimulationConfig raid5;
  raid5.organization = Organization::kRaid5;
  raid5.cached = true;
  const ReplayResult raid5_run =
      timed_replay(raid5, "trace1", scale1, nullptr, bench_reps);

  SimulationConfig mirror;
  mirror.organization = Organization::kMirror;
  mirror.cached = false;
  const ReplayResult mirror_run =
      timed_replay(mirror, "trace2", scale2, nullptr, bench_reps);


  TablePrinter replay_table(
      {"replay", "wall ms", "events", "events/sec"});
  replay_table.add_row({"RAID5 cached / trace1",
                        TablePrinter::num(raid5_run.wall_ms),
                        std::to_string(raid5_run.events),
                        TablePrinter::num(raid5_run.events_per_sec / 1e6, 2) +
                            " M"});
  replay_table.add_row({"Mirror uncached / trace2",
                        TablePrinter::num(mirror_run.wall_ms),
                        std::to_string(mirror_run.events),
                        TablePrinter::num(mirror_run.events_per_sec / 1e6, 2) +
                            " M"});
  replay_table.print(std::cout);
  std::cout << "\n";

  // ------------------------------------------------ op-state arena
  // OpRef churn on the per-engine arena: allocate / copy / release the
  // way the controllers do per request. Any steady-state global-heap
  // allocation on the op-state path is fatal.
  const std::uint64_t op_churn_ops = quick ? 1'000'000 : 10'000'000;
  op_churn(100'000);  // warm slabs + page faults
  OpChurnResult arena_churn;
  for (int rep = 0; rep < bench_reps; ++rep) {
    const OpChurnResult a = op_churn(op_churn_ops);
    if (rep == 0 || a.ops_per_sec > arena_churn.ops_per_sec) arena_churn = a;
  }

  TablePrinter alloc_table({"op allocator", "value"});
  alloc_table.add_row(
      {"arena churn", TablePrinter::num(arena_churn.ops_per_sec / 1e6, 2) +
                          " M ops/sec"});
  alloc_table.add_row(
      {"steady-state heap allocs",
       std::to_string(arena_churn.op_state_heap_allocs_steady) +
           " (op-state), " +
           std::to_string(arena_churn.global_heap_allocs_steady) +
           " (global)"});
  alloc_table.print(std::cout);
  std::cout << "\n";
  if (arena_churn.op_state_heap_allocs_steady != 0) {
    std::cerr << "FATAL: arena op-state path made "
              << arena_churn.op_state_heap_allocs_steady
              << " global-heap allocations in steady state (expected 0)\n";
    return 1;
  }

  // ---------------------------------------------- sharded replay bench
  // The same RAID5/trace1 replay at several shard/thread counts. Every
  // point's merged metrics must be bit-identical to the one-shard run
  // (the simulator's determinism contract); single-threaded multi-shard points isolate the
  // algorithmic win (smaller per-shard event heaps) from thread
  // parallelism, which needs actual cores to show up.
  struct ShardPoint {
    int shards = 0;
    int threads = 0;
    ReplayResult run;
    bool identical = false;
  };
  Metrics one_shard_metrics;
  SimulationConfig sharded_base = raid5;
  sharded_base.shards = 1;
  sharded_base.shard_threads = 1;
  std::vector<ShardPoint> shard_points;
  {
    ShardPoint p;
    p.shards = 1;
    p.threads = 1;
    p.run = timed_replay(sharded_base, "trace1", scale1, &one_shard_metrics);
    p.identical = true;
    shard_points.push_back(p);
  }
  const int hw_threads = max_threads;
  for (const auto [shards, threads] :
       std::vector<std::pair<int, int>>{{2, 1},
                                        {2, 2},
                                        {4, 1},
                                        {4, std::min(4, hw_threads)},
                                        {13, 1},
                                        {13, hw_threads}}) {
    SimulationConfig config = raid5;
    config.shards = shards;
    config.shard_threads = threads;
    ShardPoint p;
    p.shards = shards;
    p.threads = threads;
    Metrics m;
    p.run = timed_replay(config, "trace1", scale1, &m);
    p.identical = m.requests == one_shard_metrics.requests &&
                  m.response_all.count() ==
                      one_shard_metrics.response_all.count() &&
                  m.response_all.mean() ==
                      one_shard_metrics.response_all.mean() &&
                  m.response_all.p95() ==
                      one_shard_metrics.response_all.p95() &&
                  m.events_executed == one_shard_metrics.events_executed &&
                  m.disk_accesses == one_shard_metrics.disk_accesses;
    shard_points.push_back(p);
  }

  TablePrinter shard_table(
      {"shards", "threads", "wall ms", "events/sec", "vs 1 shard",
       "identical"});
  const double one_shard_eps = shard_points.front().run.events_per_sec;
  bool all_identical = true;
  for (const auto& p : shard_points) {
    all_identical = all_identical && p.identical;
    shard_table.add_row(
        {std::to_string(p.shards), std::to_string(p.threads),
         TablePrinter::num(p.run.wall_ms),
         TablePrinter::num(p.run.events_per_sec / 1e6, 2) + " M",
         TablePrinter::num(p.run.events_per_sec / one_shard_eps, 2) + "x",
         p.identical ? "yes" : "NO"});
  }
  shard_table.print(std::cout);
  if (!all_identical) {
    std::cerr << "FATAL: sharded metrics diverged from the one-shard run\n";
    return 1;
  }
  std::cout << "(hardware threads available: " << (hw ? hw : 1u) << ")\n\n";

  // -------------------------------------------------- tracing overhead
  // Same RAID5 replay with the request-lifecycle tracer recording into
  // its ring buffer (no file export). The "off" run re-measures rather
  // than reusing raid5_run so both sides see the same cache state.
  const ReplayResult traced_off = timed_replay(raid5, "trace1", scale1);
  SimulationConfig raid5_traced = raid5;
  raid5_traced.obs.tracing = true;
  const ReplayResult traced_on = timed_replay(raid5_traced, "trace1", scale1);
  const double tracing_overhead_pct =
      traced_on.events_per_sec > 0.0
          ? (traced_off.events_per_sec / traced_on.events_per_sec - 1.0) * 1e2
          : 0.0;

  TablePrinter tracing_table({"tracer", "wall ms", "events/sec"});
  tracing_table.add_row(
      {"off (runtime)", TablePrinter::num(traced_off.wall_ms),
       TablePrinter::num(traced_off.events_per_sec / 1e6, 2) + " M"});
  tracing_table.add_row(
      {"on (ring buffer)", TablePrinter::num(traced_on.wall_ms),
       TablePrinter::num(traced_on.events_per_sec / 1e6, 2) + " M"});
  tracing_table.add_row(
      {"overhead", "-", TablePrinter::num(tracing_overhead_pct, 2) + " %"});
  tracing_table.print(std::cout);
  std::cout << "\n";

  // ------------------------------------------------ telemetry overhead
  // Registry + progress hook against the bare fast path, with a fatal
  // bit-identity check: the live telemetry plane must read as free (a
  // couple of relaxed atomics per 4096-event batch) and must never
  // perturb results.
  const TelemetryBench telemetry =
      telemetry_bench(raid5, "trace1", scale1, bench_reps);
  TablePrinter telemetry_table({"telemetry plane", "events/sec"});
  telemetry_table.add_row(
      {"off (fast path)",
       TablePrinter::num(telemetry.events_per_sec_off / 1e6, 2) + " M"});
  telemetry_table.add_row(
      {"on (registry + hook)",
       TablePrinter::num(telemetry.events_per_sec_on / 1e6, 2) + " M"});
  telemetry_table.add_row(
      {"overhead", TablePrinter::num(telemetry.overhead_pct, 2) + " %"});
  telemetry_table.add_row(
      {"bit-identical", telemetry.identical ? "yes" : "NO"});
  telemetry_table.print(std::cout);
  std::cout << "\n";
  if (!telemetry.identical) {
    std::cerr << "FATAL: telemetry-on and telemetry-off runs produced "
                 "different metrics\n";
    return 1;
  }

  // ---------------------------------------------- service saturation
  // The overload regime ext_service_saturation studies, reduced to the
  // two numbers worth guarding: goodput under a shedding burst and the
  // shed rate itself.
  const int svc_offered = quick ? 24 : 48;
  const double svc_scale = quick ? 0.02 : 0.05;
  const ServiceBench svc = service_bench(svc_offered, svc_scale);
  TablePrinter svc_table({"service saturation", "value"});
  svc_table.add_row({"offered jobs", std::to_string(svc.offered)});
  svc_table.add_row({"completed ok", std::to_string(svc.completed_ok)});
  svc_table.add_row({"shed (overloaded)", std::to_string(svc.shed)});
  svc_table.add_row(
      {"goodput", TablePrinter::num(svc.goodput_per_sec, 2) + " jobs/sec"});
  svc_table.add_row(
      {"shed rate", TablePrinter::num(svc.shed_rate_per_sec, 2) + " /sec"});
  svc_table.add_row({"shed", TablePrinter::num(svc.shed_pct, 1) + " %"});
  svc_table.print(std::cout);
  std::cout << "\n";

  // ------------------------------------------------- cache-index bench
  const std::uint64_t cache_ops = quick ? 2'000'000 : 10'000'000;
  const std::size_t cache_capacity = 16384;
  // Warm once (first-touch page faults), then measure.
  cache_ops_per_sec(100'000, cache_capacity);
  const double cache_eps = cache_ops_per_sec(cache_ops, cache_capacity);

  TablePrinter cache_table({"cache storage", "ops/sec"});
  cache_table.add_row({"slab + open addressing",
                       TablePrinter::num(cache_eps / 1e6, 2) + " M"});
  cache_table.print(std::cout);
  std::cout << "\n";

  // --------------------------------------------- latency-histogram bench
  const std::uint64_t hist_adds = quick ? 5'000'000 : 20'000'000;
  histogram_bench(200'000);  // warm-up
  const HistogramBench hist = histogram_bench(hist_adds);
  TablePrinter hist_table({"latency histogram", "rate"});
  hist_table.add_row(
      {"add (per-op record)", TablePrinter::num(hist.adds_per_sec / 1e6, 2) +
                                  " M/sec"});
  hist_table.add_row({"merge 16 shards + p50..p999",
                      TablePrinter::num(hist.merge_quantile_per_sec / 1e3, 1) +
                          " k/sec"});
  hist_table.print(std::cout);
  std::cout << "\n";

  // -------------------------------------------------- trace-load bench
  // Serialize one synthetic trace both ways, then time re-reading each
  // (the repeated-replay workflow trace_convert exists for).
  const double trace_load_scale = quick ? 0.05 : 0.2;
  std::string text_trace;
  std::string binary_trace;
  {
    WorkloadOptions wo;
    wo.scale = trace_load_scale;
    auto stream = make_workload("trace1", wo);
    std::ostringstream text_out;
    TraceWriter::write(*stream, text_out);
    text_trace = text_out.str();
    auto stream2 = make_workload("trace1", wo);
    std::stringstream bin_out(std::ios::in | std::ios::out |
                              std::ios::binary);
    BinaryTraceWriter::write(*stream2, bin_out);
    binary_trace = bin_out.str();
  }
  TraceLoadResult text_load;
  TraceLoadResult binary_load;
  for (int rep = 0; rep < 3; ++rep) {  // best of 3: parse cost dominates
    TraceReader text_reader(
        std::make_unique<std::istringstream>(text_trace));
    const TraceLoadResult t = timed_trace_load(text_reader);
    if (t.records_per_sec > text_load.records_per_sec) text_load = t;
    auto binary_reader = BinaryTraceReader::from_buffer(
        binary_trace.data(), binary_trace.size());
    const TraceLoadResult b = timed_trace_load(*binary_reader);
    if (b.records_per_sec > binary_load.records_per_sec) binary_load = b;
  }
  const double trace_load_speedup =
      binary_load.records_per_sec / text_load.records_per_sec;

  TablePrinter trace_table({"trace load", "records", "records/sec"});
  trace_table.add_row({"text (parse)", std::to_string(text_load.records),
                       TablePrinter::num(text_load.records_per_sec / 1e6, 2) +
                           " M"});
  trace_table.add_row(
      {"binary (RSTB)", std::to_string(binary_load.records),
       TablePrinter::num(binary_load.records_per_sec / 1e6, 2) + " M"});
  trace_table.add_row(
      {"speedup", "-", TablePrinter::num(trace_load_speedup, 2) + "x"});
  trace_table.print(std::cout);
  std::cout << "\n";

  // ------------------------------------------------ sweep-scaling bench
  const int sweep_runs = quick ? 8 : 16;
  const double sweep_scale = quick ? 0.02 : 0.05;
  const unsigned hw_avail = hw ? hw : 1u;
  std::vector<int> thread_points{1, 2, 4};
  if (max_threads > 4) thread_points.push_back(max_threads);
  // On a single-core host, every multi-thread point is pure scheduler
  // overhead on top of the 1-thread number; quick mode skips them.
  if (quick && hw_avail == 1) thread_points = {1};

  SimulationConfig sweep_config;
  sweep_config.organization = Organization::kRaid5;
  sweep_config.cached = true;

  std::vector<SweepPoint> sweep_points;
  TablePrinter sweep_table(
      {"threads", "wall ms", "runs/sec", "scaling", "saturated"});
  double base_rps = 0.0;
  for (int t : thread_points) {
    const SweepPoint p = timed_sweep(t, sweep_runs, sweep_config, sweep_scale);
    sweep_points.push_back(p);
    if (t == 1) base_rps = p.runs_per_sec;
    // A point is saturated once it asks for at least every hardware
    // thread: scaling beyond it measures oversubscription, not cores.
    sweep_table.add_row(
        {std::to_string(t), TablePrinter::num(p.wall_ms),
         TablePrinter::num(p.runs_per_sec, 3),
         base_rps > 0.0 ? TablePrinter::num(p.runs_per_sec / base_rps, 2) + "x"
                        : "-",
         static_cast<unsigned>(p.threads) >= hw_avail ? "yes" : "no"});
  }
  sweep_table.print(std::cout);
  std::cout << "(hardware threads available: " << hw_avail << ")\n\n";

  // ------------------------------------------------------- JSON export
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\n"
      << "  \"schema\": 7,\n"
      << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n"
      << "  \"hardware_threads\": " << hw_avail << ",\n"
      << "  \"kernel\": {\n"
      << "    \"churn_events\": " << churn_events << ",\n"
      << "    \"events_per_sec\": " << kernel_eps << "\n"
      << "  },\n"
      << "  \"end_to_end\": {\n"
      << "    \"raid5_cached_trace1\": {\"wall_ms\": " << raid5_run.wall_ms
      << ", \"events\": " << raid5_run.events
      << ", \"events_per_sec\": " << raid5_run.events_per_sec
      << ", \"mean_response_ms\": " << raid5_run.mean_response_ms << "},\n"
      << "    \"mirror_uncached_trace2\": {\"wall_ms\": " << mirror_run.wall_ms
      << ", \"events\": " << mirror_run.events
      << ", \"events_per_sec\": " << mirror_run.events_per_sec
      << ", \"mean_response_ms\": " << mirror_run.mean_response_ms << "}\n"
      << "  },\n"
      << "  \"allocation\": {\n"
      << "    \"churn\": {\n"
      << "      \"ops\": " << op_churn_ops << ",\n"
      << "      \"arena_ops_per_sec\": " << arena_churn.ops_per_sec << ",\n"
      << "      \"op_state_heap_allocs_steady\": "
      << arena_churn.op_state_heap_allocs_steady << ",\n"
      << "      \"global_heap_allocs_steady\": "
      << arena_churn.global_heap_allocs_steady << "\n"
      << "    }\n"
      << "  },\n"
      << "  \"sharded\": {\n"
      << "    \"trace\": \"trace1\",\n"
      << "    \"scale\": " << scale1 << ",\n"
      << "    \"all_identical\": " << (all_identical ? "true" : "false")
      << ",\n"
      << "    \"points\": [";
  for (std::size_t i = 0; i < shard_points.size(); ++i) {
    const auto& p = shard_points[i];
    out << (i ? ", " : "") << "{\"shards\": " << p.shards
        << ", \"threads\": " << p.threads
        << ", \"wall_ms\": " << p.run.wall_ms
        << ", \"events_per_sec\": " << p.run.events_per_sec
        << ", \"identical\": " << (p.identical ? "true" : "false") << "}";
  }
  out << "]\n"
      << "  },\n"
      << "  \"cache_index\": {\n"
      << "    \"ops\": " << cache_ops << ",\n"
      << "    \"capacity_blocks\": " << cache_capacity << ",\n"
      << "    \"ops_per_sec\": " << cache_eps << "\n"
      << "  },\n"
      << "  \"histogram\": {\n"
      << "    \"adds\": " << hist.adds << ",\n"
      << "    \"adds_per_sec\": " << hist.adds_per_sec << ",\n"
      << "    \"merge_quantile_per_sec\": " << hist.merge_quantile_per_sec
      << "\n"
      << "  },\n"
      << "  \"trace_load\": {\n"
      << "    \"records\": " << text_load.records << ",\n"
      << "    \"text_records_per_sec\": " << text_load.records_per_sec
      << ",\n"
      << "    \"binary_records_per_sec\": " << binary_load.records_per_sec
      << ",\n"
      << "    \"speedup_binary_vs_text\": " << trace_load_speedup << "\n"
      << "  },\n"
      << "  \"tracing\": {\n"
      << "    \"events_per_sec_off\": " << traced_off.events_per_sec << ",\n"
      << "    \"events_per_sec_on\": " << traced_on.events_per_sec << ",\n"
      << "    \"overhead_pct\": " << tracing_overhead_pct << "\n"
      << "  },\n"
      << "  \"telemetry\": {\n"
      << "    \"events_per_sec_off\": " << telemetry.events_per_sec_off
      << ",\n"
      << "    \"events_per_sec_on\": " << telemetry.events_per_sec_on << ",\n"
      << "    \"overhead_pct\": " << telemetry.overhead_pct << ",\n"
      << "    \"identical\": " << (telemetry.identical ? "true" : "false")
      << "\n"
      << "  },\n"
      << "  \"service\": {\n"
      << "    \"offered_jobs\": " << svc.offered << ",\n"
      << "    \"completed_ok\": " << svc.completed_ok << ",\n"
      << "    \"shed\": " << svc.shed << ",\n"
      << "    \"wall_ms\": " << svc.wall_ms << ",\n"
      << "    \"goodput_jobs_per_sec\": " << svc.goodput_per_sec << ",\n"
      << "    \"shed_rate_per_sec\": " << svc.shed_rate_per_sec << ",\n"
      << "    \"shed_pct\": " << svc.shed_pct << "\n"
      << "  },\n"
      << "  \"sweep\": {\n"
      << "    \"runs\": " << sweep_runs << ",\n"
      << "    \"hardware_threads\": " << hw_avail << ",\n"
      << "    \"points\": [";
  for (std::size_t i = 0; i < sweep_points.size(); ++i) {
    const auto& p = sweep_points[i];
    out << (i ? ", " : "") << "{\"threads\": " << p.threads
        << ", \"wall_ms\": " << p.wall_ms
        << ", \"runs_per_sec\": " << p.runs_per_sec << ", \"saturated\": "
        << (static_cast<unsigned>(p.threads) >= hw_avail ? "true" : "false")
        << "}";
  }
  out << "]\n"
      << "  }\n"
      << "}\n";
  out.close();

  std::cout << "[perf data written to " << out_path << "]\n";
  return 0;
}
