// Performance harness for what no other benchmark measures: the op-state
// arena on an op-churn loop (with a fatal zero-heap steady-state gate),
// the request tracer's and the telemetry plane's cost on a replay (each
// with a fatal bit-identity gate), service goodput under saturation, the
// latency-histogram recorder, and sweep throughput at 1/2/4/hw threads.
// End-to-end replay rates and per-layer costs come from bench/e2e's
// raidsim_bench; the kernel, NV-cache and trace-load microbenches from
// micro_substrates. Emits machine-readable BENCH_perf.json (see
// docs/performance.md for the schema).
//
// Usage: perf_harness [--out=<path>]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simulator.hpp"
#include "obs/metrics_registry.hpp"
#include "runner/sweep_runner.hpp"
#include "svc/supervisor.hpp"
#include "util/arena.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

// Global-heap traffic counter: the harness replaces the default
// operator new/delete with counting versions so the allocation section
// can report the steady-state global-heap allocation rate alongside the
// op-state arena's own counter (the fatal zero-heap gate keys on the
// arena counter; this one is context).
static std::atomic<std::uint64_t> g_heap_allocs{0};

// All out of line: once GCC 12 sees both the malloc in an operator new
// and the std::free in an operator delete, it flags the pair under
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// The nothrow forms too, so a nothrow new is not freed by the std::free
// below after taking the default allocator (an ASan mismatch).
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One observer's cost on a replay: `pairs` alternating off/on runs of
/// the same job. The two runs of a pair share the host's current phase, so
/// the median of the per-pair wall ratios resolves a few-percent cost that
/// one unpaired sample per side cannot. Every run's metrics must equal the
/// first off run's byte for byte: an observer that perturbs results is
/// broken, whatever it costs.
struct OffOn {
  int pairs = 0;
  double events_per_sec_off = 0.0;  // median over the off runs
  double events_per_sec_on = 0.0;   // median over the on runs
  double overhead_pct = 0.0;        // (median on/off wall ratio - 1) * 100
  bool identical = true;
};

OffOn off_on(int pairs, const std::function<raidsim::Metrics(bool on)>& run) {
  OffOn r;
  r.pairs = pairs;
  std::string reference;
  std::vector<double> ratios, eps_off, eps_on;
  for (int pair = 0; pair < pairs; ++pair) {
    double wall[2] = {0.0, 0.0};
    for (const bool on : {false, true}) {
      const auto start = std::chrono::steady_clock::now();
      const raidsim::Metrics m = run(on);
      wall[on] = seconds_since(start);
      (on ? eps_on : eps_off)
          .push_back(static_cast<double>(m.events_executed) / wall[on]);
      std::ostringstream json;
      m.to_json(json);
      if (reference.empty()) reference = json.str();
      r.identical = r.identical && json.str() == reference;
    }
    ratios.push_back(wall[1] / wall[0]);
  }
  r.events_per_sec_off = median(eps_off);
  r.events_per_sec_on = median(eps_on);
  r.overhead_pct = (median(ratios) - 1.0) * 1e2;
  return r;
}

/// Sets the process-wide registry's kill switch (default on) for one scope
/// and turns it back on when the scope ends, also when the replay throws.
struct RegistryEnabled {
  explicit RegistryEnabled(bool on) {
    raidsim::MetricsRegistry::instance().set_enabled(on);
  }
  ~RegistryEnabled() { raidsim::MetricsRegistry::instance().set_enabled(true); }
};

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

/// Service saturation in-process, without the socket: a burst of
/// distinct jobs against a small admission queue. Goodput and shed counts come from the supervisor's
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

  std::string out_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --out=<path>\n";
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const int hw_threads = hw ? static_cast<int>(hw) : 1;

  std::cout << "== perf_harness ==\n"
            << "op-state arena + tracer/telemetry cost + service + "
               "histogram + sweep scaling; "
            << hw_threads << " hardware threads\n\n";

  // ------------------------------------------------ op-state arena
  // OpRef churn on the per-engine arena: allocate / copy / release the
  // way the controllers do per request. Any steady-state global-heap
  // allocation on the op-state path is fatal. Best of 3: the loop is
  // deterministic, so the fastest sample is the least-contended one.
  const std::uint64_t op_churn_ops = 10'000'000;
  op_churn(100'000);  // warm slabs + page faults
  OpChurnResult arena_churn;
  for (int rep = 0; rep < 3; ++rep) {
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

  // ------------------------------------- tracer and telemetry overhead
  // The cached-RAID5 trace1 replay with each observer off and on. The
  // tracer records into its ring buffer (no file export); the telemetry
  // side enables the metrics registry and adds a no-op progress hook.
  // Both must leave the metrics bit-identical.
  const int pairs = 9;
  SweepJob replay;
  replay.config.organization = Organization::kRaid5;
  replay.config.cached = true;
  replay.trace = "trace1";
  replay.workload.scale = 0.1;

  const OffOn tracing = off_on(pairs, [&](bool on) {
    SweepJob job = replay;
    job.config.obs.tracing = on;
    return run_sweep_job(job);
  });
  const OffOn telemetry = off_on(pairs, [&](bool on) {
    SweepJob job = replay;
    if (on) job.progress = [](const ProgressSnapshot&) {};
    const RegistryEnabled registry(on);
    return run_sweep_job(job);
  });

  TablePrinter overhead_table(
      {"observer", "off events/sec", "on events/sec", "overhead",
       "bit-identical"});
  auto add_overhead_row = [&](const std::string& name, const OffOn& r) {
    overhead_table.add_row(
        {name, TablePrinter::num(r.events_per_sec_off / 1e6, 2) + " M",
         TablePrinter::num(r.events_per_sec_on / 1e6, 2) + " M",
         TablePrinter::num(r.overhead_pct, 2) + " %",
         r.identical ? "yes" : "NO"});
  };
  add_overhead_row("tracer (ring buffer)", tracing);
  add_overhead_row("telemetry (registry + hook)", telemetry);
  overhead_table.print(std::cout);
  std::cout << "(median of " << pairs << " alternating off/on pairs)\n\n";
  if (!tracing.identical || !telemetry.identical) {
    std::cerr << "FATAL: a " << (tracing.identical ? "telemetry" : "tracing")
              << "-on run produced different metrics from the off run\n";
    return 1;
  }

  // ---------------------------------------------- service saturation
  // The overload regime reduced to the two numbers worth guarding:
  // goodput under a shedding burst and the shed rate itself.
  const ServiceBench svc = service_bench(48, 0.05);
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

  // --------------------------------------------- latency-histogram bench
  histogram_bench(200'000);  // warm-up
  const HistogramBench hist = histogram_bench(20'000'000);
  TablePrinter hist_table({"latency histogram", "rate"});
  hist_table.add_row(
      {"add (per-op record)", TablePrinter::num(hist.adds_per_sec / 1e6, 2) +
                                  " M/sec"});
  hist_table.add_row({"merge 16 shards + p50..p999",
                      TablePrinter::num(hist.merge_quantile_per_sec / 1e3, 1) +
                          " k/sec"});
  hist_table.print(std::cout);
  std::cout << "\n";

  // ------------------------------------------------ sweep-scaling bench
  const int sweep_runs = 16;
  std::vector<int> thread_points{1, 2, 4};
  if (hw_threads > 4) thread_points.push_back(hw_threads);

  SimulationConfig sweep_config;
  sweep_config.organization = Organization::kRaid5;
  sweep_config.cached = true;

  std::vector<SweepPoint> sweep_points;
  TablePrinter sweep_table(
      {"threads", "wall ms", "runs/sec", "scaling", "saturated"});
  double base_rps = 0.0;
  for (int t : thread_points) {
    const SweepPoint p = timed_sweep(t, sweep_runs, sweep_config, 0.05);
    sweep_points.push_back(p);
    if (t == 1) base_rps = p.runs_per_sec;
    // A point is saturated once it asks for at least every hardware
    // thread: scaling beyond it measures oversubscription, not cores.
    sweep_table.add_row(
        {std::to_string(t), TablePrinter::num(p.wall_ms),
         TablePrinter::num(p.runs_per_sec, 3),
         base_rps > 0.0 ? TablePrinter::num(p.runs_per_sec / base_rps, 2) + "x"
                        : "-",
         p.threads >= hw_threads ? "yes" : "no"});
  }
  sweep_table.print(std::cout);
  std::cout << "\n";

  // ------------------------------------------------------- JSON export
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out.setf(std::ios::fixed);
  out.precision(3);
  auto off_on_json = [&out](const OffOn& r) {
    out << "{\n"
        << "    \"pairs\": " << r.pairs << ",\n"
        << "    \"events_per_sec_off\": " << r.events_per_sec_off << ",\n"
        << "    \"events_per_sec_on\": " << r.events_per_sec_on << ",\n"
        << "    \"overhead_pct\": " << r.overhead_pct << ",\n"
        << "    \"identical\": " << (r.identical ? "true" : "false") << "\n"
        << "  }";
  };
  out << "{\n"
      << "  \"schema\": 8,\n"
      << "  \"hardware_threads\": " << hw_threads << ",\n"
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
      << "  \"histogram\": {\n"
      << "    \"adds\": " << hist.adds << ",\n"
      << "    \"adds_per_sec\": " << hist.adds_per_sec << ",\n"
      << "    \"merge_quantile_per_sec\": " << hist.merge_quantile_per_sec
      << "\n"
      << "  },\n"
      << "  \"tracing\": ";
  off_on_json(tracing);
  out << ",\n  \"telemetry\": ";
  off_on_json(telemetry);
  out << ",\n"
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
      << "    \"hardware_threads\": " << hw_threads << ",\n"
      << "    \"points\": [";
  for (std::size_t i = 0; i < sweep_points.size(); ++i) {
    const auto& p = sweep_points[i];
    out << (i ? ", " : "") << "{\"threads\": " << p.threads
        << ", \"wall_ms\": " << p.wall_ms
        << ", \"runs_per_sec\": " << p.runs_per_sec << ", \"saturated\": "
        << (p.threads >= hw_threads ? "true" : "false") << "}";
  }
  out << "]\n"
      << "  }\n"
      << "}\n";
  out.close();

  std::cout << "[perf data written to " << out_path << "]\n";
  return 0;
}
