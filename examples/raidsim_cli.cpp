// Full-featured command-line front end to the simulator: every knob the
// paper studies is a flag. The Swiss-army-knife companion to the focused
// examples.
//
// Usage: raidsim_cli [flags]
//   --trace=trace1|trace2     workload preset          (default trace2)
//   --trace-file=<path>       replay a trace file instead of a preset
//                             (text or binary; format sniffed)
//   --scale=<f>               fraction of the preset trace (default 0.25)
//   --speed=<f>               arrival-rate multiplier   (default 1.0)
//   --seed=<n>                workload RNG seed override
//   --org=base|mirror|raid5|raid4|raid10|parstrip       (default raid5)
//   --n=<disks>               array size N              (default 10)
//   --su=<blocks>             RAID4/5 striping unit     (default 1)
//   --sync=si|rf|rfpr|df|dfpr parity synchronization    (default df)
//   --parity-placement=middle|end                       (default middle)
//   --parity-fine-chunk=<blk> fine-grained ParStrip     (default 0 = off)
//   --sched=fifo|sstf|scan    disk queue scheduling     (default fifo)
//   --cache=<MB>              enable NV cache of this size
//   --destage-period=<ms>     destage period            (default 300)
//   --no-old-data             disable old-data retention
//   --parity-caching          RAID4 parity caching
//   --fail-disk=<d>           run array 0 degraded with disk d failed
//   --rebuild                 rebuild the failed disk online
//   --shards=<n>              n per-array-group event kernels on a
//                             thread pool, each array's destage timer
//                             stopping at its own last response
//                             (default 0 = one kernel streaming the
//                             trace, timers stopping at run quiescence)
//   --shard-threads=<n>       threads for --shards >= 1
//                             (default 0 = min(shards, hw))
//   --tail                    fail-slow mitigation: hedged reads at 3x
//                             the primary disk's EWMA latency, a 120 ms
//                             read deadline, mirror redirect-on-slow and
//                             parity reconstruct-around-the-straggler
//   --csv                     machine-readable result line (with
//                             retry/timeout/hedge/redirect counters)
//   --csv-header              print the --csv column names and exit
//   --json                    full Metrics::to_json dump on stdout
//   --progress                live heartbeat on stderr (events, sim time,
//                             percent done); passive, results unchanged
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "sim/progress.hpp"

#include "array/rebuild.hpp"
#include "core/reliability.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "trace/trace_io.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

namespace {

using namespace raidsim;

[[noreturn]] void fail(const std::string& message) {
  std::cerr << "raidsim_cli: " << message << " (--help for usage)\n";
  std::exit(2);
}

/// An enum flag value by wire name; an unknown one exits 2 naming it.
template <class E>
E named(const char* v) {
  try {
    return parse_wire_name<E>(v);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

/// A numeric flag value parsed whole; a bad one exits 2 naming the flag.
template <class T>
T number(const std::string& flag, const char* v) {
  try {
    return parse_number<T>(v, "flag: " + flag);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

/// --progress: wall-clock-throttled heartbeat to stderr. Shard threads
/// may call concurrently, so the throttle state is atomic. Final frame
/// always prints, then a newline so the result table starts clean.
ProgressFn make_heartbeat() {
  using Clock = std::chrono::steady_clock;
  auto last = std::make_shared<std::atomic<std::int64_t>>(0);
  const auto epoch = Clock::now();
  return [last, epoch](const ProgressSnapshot& s) {
    const std::int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              epoch)
            .count();
    std::int64_t prev = last->load(std::memory_order_relaxed);
    if (!s.final_frame &&
        (now_ms - prev < 200 ||
         !last->compare_exchange_strong(prev, now_ms,
                                        std::memory_order_relaxed)))
      return;
    last->store(now_ms, std::memory_order_relaxed);
    if (s.total > 0) {
      std::fprintf(stderr,
                   "\rraidsim_cli: %5.1f%%  %llu/%llu requests  "
                   "%llu events  sim %.0f ms   ",
                   100.0 * static_cast<double>(s.done) /
                       static_cast<double>(s.total),
                   static_cast<unsigned long long>(s.done),
                   static_cast<unsigned long long>(s.total),
                   static_cast<unsigned long long>(s.events), s.sim_ms);
    } else {
      std::fprintf(stderr,
                   "\rraidsim_cli: %llu requests  %llu events  sim %.0f ms   ",
                   static_cast<unsigned long long>(s.done),
                   static_cast<unsigned long long>(s.events), s.sim_ms);
    }
    if (s.final_frame) std::fprintf(stderr, "\n");
  };
}

}  // namespace

int main(int argc, char** argv) {
  SimulationConfig config;
  std::string trace_name = "trace2";
  std::string trace_file;
  WorkloadOptions workload;
  workload.scale = 0.25;
  int fail_disk = -1;
  bool rebuild = false;
  bool csv = false;
  bool json = false;
  bool progress = false;

  const char* csv_header =
      "config,requests,mean_ms,read_ms,write_ms,p95_ms,p99_ms,p999_ms,"
      "read_hit,write_hit,mean_util,transient_retries,retry_exhaustions,"
      "timeouts_fired,hedged_reads,hedge_wins,hedge_cancellations,"
      "redirected_reads";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      std::cout << "see the header of examples/raidsim_cli.cpp for flags\n";
      return 0;
    } else if (const char* v = value("--trace=")) {
      trace_name = v;
    } else if (const char* v = value("--trace-file=")) {
      trace_file = v;
    } else if (const char* v = value("--scale=")) {
      workload.scale = number<double>(arg, v);
    } else if (const char* v = value("--speed=")) {
      workload.speed = number<double>(arg, v);
    } else if (const char* v = value("--seed=")) {
      workload.seed = number<std::uint64_t>(arg, v);
    } else if (const char* v = value("--org=")) {
      config.organization = named<Organization>(v);
    } else if (const char* v = value("--n=")) {
      config.array_data_disks = number<int>(arg, v);
    } else if (const char* v = value("--su=")) {
      config.striping_unit_blocks = number<int>(arg, v);
    } else if (const char* v = value("--sync=")) {
      config.sync = named<SyncPolicy>(v);
    } else if (const char* v = value("--parity-placement=")) {
      config.parity_placement = named<ParityPlacement>(v);
    } else if (const char* v = value("--parity-fine-chunk=")) {
      config.parity_fine_grain_chunk_blocks = number<int>(arg, v);
    } else if (const char* v = value("--sched=")) {
      config.disk_scheduling = named<DiskScheduling>(v);
    } else if (const char* v = value("--cache=")) {
      config.cached = true;
      config.cache_bytes = number<std::int64_t>(arg, v) << 20;
    } else if (const char* v = value("--destage-period=")) {
      config.destage_period_ms = number<double>(arg, v);
    } else if (arg == "--no-old-data") {
      config.retain_old_data = false;
    } else if (arg == "--parity-caching") {
      config.parity_caching = true;
    } else if (const char* v = value("--fail-disk=")) {
      fail_disk = number<int>(arg, v);
    } else if (arg == "--rebuild") {
      rebuild = true;
    } else if (const char* v = value("--shards=")) {
      config.shards = number<int>(arg, v);
    } else if (const char* v = value("--shard-threads=")) {
      config.shard_threads = number<int>(arg, v);
    } else if (arg == "--tail") {
      config.tail = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--csv-header") {
      std::cout << csv_header << '\n';
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--progress") {
      progress = true;
    } else {
      fail("unknown flag: " + arg);
    }
  }

  try {
    config.validate();
    std::unique_ptr<TraceStream> trace;
    if (!trace_file.empty()) {
      trace = open_trace(trace_file);  // sniffs text vs binary
      if (workload.speed != 1.0)
        trace = std::make_unique<SpeedAdapter>(std::move(trace),
                                               workload.speed);
    } else {
      trace = make_workload(trace_name, workload);
    }

    Simulator sim(config, trace->geometry());
    if (progress) sim.set_progress_hook(make_heartbeat());
    std::unique_ptr<RebuildProcess> rebuilder;
    if (fail_disk >= 0) {
      sim.mutable_controller(0).fail_disk(fail_disk);
      if (rebuild) {
        // Array 0's shard queue: the rebuild runs beside its replay.
        rebuilder = std::make_unique<RebuildProcess>(
            sim.event_queue(0), sim.mutable_controller(0));
        rebuilder->start(nullptr);
      }
    }
    const Metrics m = sim.run(*trace);

    if (json) {
      m.to_json(std::cout);
      std::cout << '\n';
      return 0;
    }
    if (csv) {
      std::cout << config.describe() << ',' << m.requests << ','
                << m.mean_response_ms() << ',' << m.response_read.mean()
                << ',' << m.response_write.mean() << ','
                << m.response_all.p95() << ',' << m.response_all.p99() << ','
                << m.response_all.p999() << ',' << m.read_hit_ratio() << ','
                << m.write_hit_ratio() << ',' << m.mean_disk_utilization()
                << ',' << m.controller.transient_retries << ','
                << m.controller.retry_exhaustions << ','
                << m.controller.timeouts_fired << ','
                << m.controller.hedged_reads << ','
                << m.controller.hedge_wins << ','
                << m.controller.hedge_cancellations << ','
                << m.controller.redirected_reads << '\n';
      return 0;
    }

    std::cout << config.describe() << "\n\n";
    TablePrinter table({"metric", "value"});
    table.add_row({"requests", std::to_string(m.requests)});
    table.add_row({"mean response (ms)",
                   TablePrinter::num(m.mean_response_ms())});
    table.add_row({"read / write (ms)",
                   TablePrinter::num(m.response_read.mean()) + " / " +
                       TablePrinter::num(m.response_write.mean())});
    table.add_row({"p50 / p95 / p99 (ms)",
                   TablePrinter::num(m.response_all.p50()) + " / " +
                       TablePrinter::num(m.response_all.p95()) + " / " +
                       TablePrinter::num(m.response_all.p99())});
    if (config.cached) {
      table.add_row({"read / write hit",
                     TablePrinter::num(100.0 * m.read_hit_ratio(), 1) +
                         "% / " +
                         TablePrinter::num(100.0 * m.write_hit_ratio(), 1) +
                         "%"});
    }
    table.add_row({"mean / max disk util",
                   TablePrinter::num(m.mean_disk_utilization(), 3) + " / " +
                       TablePrinter::num(m.max_disk_utilization(), 3)});
    table.add_row({"arrays x disks",
                   std::to_string(m.arrays) + " x " +
                       std::to_string(m.total_disks / std::max(1, m.arrays))});
    if (fail_disk >= 0) {
      table.add_row({"degraded reads",
                     std::to_string(m.controller.degraded_reads)});
      table.add_row({"degraded writes",
                     std::to_string(m.controller.degraded_writes)});
    }
    const double mttdl_years =
        system_mttdl_hours(config.organization, trace->geometry().data_disks,
                           config.array_data_disks) /
        (24.0 * 365.0);
    table.add_row({"system MTTDL (years)", TablePrinter::num(mttdl_years, 1)});
    table.print(std::cout);
  } catch (const std::exception& e) {
    std::cerr << "raidsim_cli: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
