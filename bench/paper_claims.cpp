// The paper's tables, figures and design-choice ablations, and the
// extensions beyond its evaluation, as rows of one table. Each row holds
// its banner, its default scales, the simulation points it queues, how it
// prints them, and its claims.
//
//   paper_claims [<row>] [options]
//
// With a row, prints that row's tables; with none, every row in order.
// Every point of a row runs through one Sweep (--threads workers), so the
// tables are byte-identical at any thread count. After a row's tables
// each claim's verdict goes to stderr; the exit status is 1 when an
// asserted claim fails, 2 on an unknown row or option.
//
// A claim is its own check, written over the printed values:
//
//   [<table>, ...:] <chain> [and <chain> ...] [@ <each>, ...] [-- <note>]
//
// A chain is expressions joined by `<` or `<=`; an expression is operands
// joined by `+`, `-` and `*` (each with spaces around it); an operand is
// a number, `series[x]`, a bare `series` or a bare `[x]`. Bare operands
// take the missing x or series from each `@` entry in turn (default:
// every x of the table). A comma list in a chain stands for each of its
// members. Without a table list the claim covers every table of the row.
// A claim is asserted when it held on all three seeds (the preset seed,
// --seed=1, --seed=2) of the row's CI run (bench/CMakeLists.txt); any
// other claim is printed only, with the number of seeds it held on.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>

#include "array/rebuild.hpp"
#include "common.hpp"
#include "core/closed_loop.hpp"
#include "core/reliability.hpp"
#include "disk/geometry.hpp"
#include "disk/seek_model.hpp"
#include "fault/mttdl_sim.hpp"
#include "fault/slowdown_injector.hpp"
#include "layout/placement_model.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_stats.hpp"

namespace {

using namespace raidsim;
using namespace raidsim::bench;

std::vector<std::string> split(std::string text, const std::string& sep) {
  std::vector<std::string> parts;
  for (auto at = text.find(sep); at != std::string::npos;
       at = text.find(sep)) {
    parts.push_back(text.substr(0, at));
    text.erase(0, at + sep.size());
  }
  parts.push_back(text);
  return parts;
}

/// Every printed value by (table heading, series, x label), for claims.
class Report {
 public:
  void set(const std::string& table, const std::string& series,
           const std::string& x, double value) {
    auto& xs = xs_[table];
    if (xs.empty()) tables_.push_back(table);
    if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
    values_[table + " | " + series + " | " + x] = value;
  }
  /// Whether `claim` (grammar at the top of this file) holds.
  bool holds(const std::string& claim) const {
    std::string text = split(claim, " -- ").front();
    std::vector<std::string> each;
    if (const auto at = text.find(" @ "); at != std::string::npos) {
      each = split(text.substr(at + 3), ", ");
      text.resize(at);
    }
    std::vector<std::string> tables = tables_;
    if (const auto colon = text.find(": "); colon != std::string::npos) {
      tables = split(text.substr(0, colon), ", ");
      text.erase(0, colon + 2);
    }
    for (const auto& table : tables)
      for (const auto& e : each.empty() ? xs_.at(table) : each)
        for (const auto& chain : split(text, " and "))
          if (!chain_holds(table, chain, e)) return false;
    return true;
  }

 private:
  double at(const std::string& table, const std::string& series,
            const std::string& x) const {
    const auto it = values_.find(table + " | " + series + " | " + x);
    if (it == values_.end())
      throw std::out_of_range("no printed value for " + table + " | " +
                              series + " | " + x);
    return it->second;
  }

  bool chain_holds(const std::string& table, std::string chain,
                   const std::string& each) const {
    // Members of each comma list, and whether `<=` follows the list.
    std::vector<std::vector<double>> groups;
    std::vector<bool> or_equal;
    for (;;) {
      const auto op = chain.find(" <");
      groups.emplace_back();
      for (const auto& e : split(chain.substr(0, op), ", "))
        groups.back().push_back(sum(table, e, each));
      if (op == std::string::npos) break;
      or_equal.push_back(chain.compare(op, 4, " <= ") == 0);
      chain.erase(0, op + (or_equal.back() ? 4 : 3));
    }
    for (std::size_t i = 0; i + 1 < groups.size(); ++i)
      for (double a : groups[i])
        for (double b : groups[i + 1])
          if (!(a < b || (or_equal[i] && a == b))) return false;
    return true;
  }
  double sum(const std::string& table, const std::string& text,
             const std::string& each) const {
    double total = 0.0;
    double sign = 1.0;
    std::size_t from = 0;
    for (;;) {
      const auto cut = std::min(text.find(" + ", from), text.find(" - ", from));
      double product = 1.0;
      for (const auto& f : split(text.substr(from, cut - from), " * "))
        product *= operand(table, f, each);
      total += sign * product;
      if (cut == std::string::npos) return total;
      sign = text[cut + 1] == '+' ? 1.0 : -1.0;
      from = cut + 3;
    }
  }
  double operand(const std::string& table, const std::string& text,
                 const std::string& each) const {
    char* end = nullptr;
    const double number = std::strtod(text.c_str(), &end);
    if (!text.empty() && *end == '\0') return number;
    const auto open = text.find('[');
    if (open == std::string::npos || text.back() != ']')
      return at(table, text, each);
    return at(table, open == 0 ? each : text.substr(0, open),
              text.substr(open + 1, text.size() - open - 2));
  }

  std::vector<std::string> tables_;
  std::map<std::string, std::vector<std::string>> xs_;
  std::map<std::string, double> values_;
};

/// Records every value of `series` in `report` under `table`.
void record(Report& report, const std::string& table,
            const std::vector<std::string>& xs,
            const std::vector<Series>& series) {
  for (const auto& s : series)
    for (std::size_t i = 0; i < xs.size(); ++i)
      report.set(table, s.name, xs[i], s.values[i]);
}

/// print_series_table, recording every value in `report`.
void print_table(Report& report, const std::string& x_name,
                 const std::vector<std::string>& xs, const std::string& title,
                 const std::vector<Series>& series,
                 const std::string& value_name = "response (ms)") {
  print_series_table(x_name, xs, title, series, value_name);
  record(report, title, xs, series);
}

/// The simulation behind one table cell: a configuration replaying the
/// table's trace at `speed`, or (`run` set) a run on a trace of its own.
struct Point {
  SimulationConfig config;
  double speed = 1.0;
  std::function<Metrics(const PointTrace&)> run{};
};

/// Metrics of a table's cells, [series][x].
using Cells = std::vector<std::vector<const Metrics*>>;

/// One printed table: a Point per (series, x) cell, printed as a series
/// table of value(series, metrics) unless `print` replaces it.
struct Table {
  std::string trace{};  // workload of the points; also the default heading
  std::string title{};  // heading when it is not the trace name
  std::string x_name{};
  std::vector<std::string> xs{};
  std::vector<std::string> series{};
  std::function<Point(std::size_t s, std::size_t x)> point{};
  std::function<double(std::size_t s, const Metrics&)> value =
      [](std::size_t, const Metrics& m) { return m.mean_response_ms(); };
  std::string value_name = "response (ms)";
  std::function<void(const Cells&)> footer{};          // after the table
  std::function<void(const Cells&, Report&)> print{};  // prints the table
};
using Tables = std::function<std::vector<Table>(const BenchOptions&)>;

struct Claim {
  std::string text;
  /// Seeds (of the CI run's three) the claim held on; 3 = asserted.
  int held;
};

struct Row {
  std::string name;
  std::string title;
  std::string paper;
  double scale1;
  double scale2;
  Tables tables;
  std::vector<Claim> claims;
};

const std::vector<std::string> kTraces{"trace1", "trace2"};
const std::vector<Organization> kOrgs{
    Organization::kBase, Organization::kMirror, Organization::kRaid5,
    Organization::kParityStriping};
const std::vector<int> kSizes{5, 10, 15, 20};
const std::vector<int> kUnits{1, 2, 4, 8, 16, 32, 64};
const std::vector<std::int64_t> kCacheMb{8, 16, 32, 64, 128, 256};
const std::vector<double> kSpeeds{0.5, 1.0, 2.0};

template <typename T, typename F>
std::vector<std::string> labels(const std::vector<T>& values, F label) {
  std::vector<std::string> out;
  for (const auto& v : values) out.push_back(label(v));
  return out;
}
template <typename E>
std::vector<std::string> names(const std::vector<E>& values) {
  return labels(values, [](E e) { return to_string(e); });
}
std::string mb_label(std::int64_t mb) { return std::to_string(mb) + " MB"; }
const auto kSizeLabels =
    labels(kSizes, [](int n) { return "N=" + std::to_string(n); });
const auto kUnitLabels =
    labels(kUnits, [](int unit) { return std::to_string(unit) + " blk"; });
const auto kCacheLabels = labels(kCacheMb, mb_label);
const auto kSpeedLabels = labels(
    kSpeeds, [](double speed) { return TablePrinter::num(speed, 1) + "x"; });

/// Array size N with its per-array cache: equal total cache in Figs 13, 17.
struct SizeCache {
  int n;
  std::int64_t cache_mb;
};

/// `table` once per trace, headed by the trace name.
Tables each_trace(const Table& table) {
  return [table](const BenchOptions&) {
    std::vector<Table> out;
    for (const auto& trace : kTraces) {
      out.push_back(table);
      out.back().trace = trace;
    }
    return out;
  };
}

SimulationConfig uncached(Organization org) {
  SimulationConfig config;
  config.organization = org;
  config.cached = false;
  return config;
}
SimulationConfig cached(Organization org, std::int64_t cache_mb = 16) {
  SimulationConfig config;
  config.organization = org;
  config.cached = true;
  config.cache_bytes = cache_mb << 20;
  return config;
}
/// Series 0 = RAID5 (data caching), series 1 = RAID4 with parity caching.
SimulationConfig raid5_or_raid4(std::size_t s, std::int64_t cache_mb = 16) {
  SimulationConfig config = cached(Organization::kRaid5, cache_mb);
  if (s == 1) {
    config.organization = Organization::kRaid4;
    config.parity_caching = true;
  }
  return config;
}
/// Series 0-1 read hit ratio, 2-3 write hit ratio, in percent.
Table hit_ratios(std::vector<std::string> series,
                 std::function<SimulationConfig(std::size_t s,
                                                std::int64_t mb)> config) {
  return {.x_name = "cache size",
          .xs = kCacheLabels,
          .series = std::move(series),
          .point = [config](std::size_t s, std::size_t x) {
            return Point{config(s % 2, kCacheMb[x])};
          },
          .value = [](std::size_t s, const Metrics& m) {
            return 100.0 *
                   (s < 2 ? m.read_hit_ratio() : m.write_hit_ratio());
          },
          .value_name = "hit ratio (%)"};
}
/// Cached organizations x {knob on, knob off} over 8/16/64 MB caches.
Tables on_off(std::vector<Organization> orgs, std::string on,
              std::string off, bool SimulationConfig::*knob) {
  static const std::vector<std::int64_t> cache_mb{8, 16, 64};
  std::vector<std::string> series;
  for (auto org : orgs)
    for (const auto& suffix : {on, off})
      series.push_back(to_string(org) + suffix);
  return each_trace({.x_name = "cache size",
                     .xs = labels(cache_mb, mb_label),
                     .series = series,
                     .point = [orgs, knob](std::size_t s, std::size_t x) {
                       Point p{cached(orgs[s / 2], cache_mb[x])};
                       p.config.*knob = s % 2 == 0;
                       return p;
                     }});
}

void print_table1() {
  DiskGeometry geo;
  const SeekModel seek = SeekModel::calibrate(SeekSpec{});
  TablePrinter t({"Table 1 parameter", "value"});
  t.add_row({"Rotation speed", TablePrinter::num(geo.rpm, 0) + " rpm"});
  t.add_row({"Average seek",
             TablePrinter::num(seek.average_over_uniform(), 1) + " ms"});
  t.add_row({"Maximal seek",
             TablePrinter::num(seek.seek_time(geo.cylinders - 1), 1) + " ms"});
  t.add_row({"Tracks per platter", std::to_string(geo.cylinders)});
  t.add_row({"Sectors per track", std::to_string(geo.sectors_per_track)});
  t.add_row({"Bytes per sector", std::to_string(geo.bytes_per_sector)});
  t.add_row(
      {"Number of platters", std::to_string(geo.tracks_per_cylinder / 2)});
  t.add_row({"Channel transfer rate", "10 MB/s"});
  t.add_row({"Capacity",
             TablePrinter::num(static_cast<double>(geo.capacity_bytes()) / 1e9,
                               2) +
                 " GB"});
  t.print(std::cout);
  std::cout << "\n";
}

void print_distribution(const std::string& name, const Metrics& m) {
  const auto& counts = m.disk_accesses;
  const auto max_count = *std::max_element(counts.begin(), counts.end());
  std::printf("%s: %zu disks, CV of per-disk accesses = %.3f\n", name.c_str(),
              counts.size(), m.disk_access_cv());
  // Compact bar chart, eight disks per line.
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const int bar =
        max_count ? static_cast<int>(40.0 * static_cast<double>(counts[i]) /
                                     static_cast<double>(max_count))
                  : 0;
    std::printf("  disk %3zu %8llu %s\n", i,
                static_cast<unsigned long long>(counts[i]),
                std::string(static_cast<std::size_t>(bar), '#').c_str());
    if (i == 31 && counts.size() > 40) {
      std::printf("  ... (%zu more disks)\n", counts.size() - 32);
      break;
    }
  }
  std::printf("\n");
}

double max_over_mean(const Metrics& m) {
  double mean = 0.0;
  std::uint64_t max = 0;
  for (auto c : m.disk_accesses) {
    mean += static_cast<double>(c);
    max = std::max(max, c);
  }
  mean /= static_cast<double>(m.disk_accesses.size());
  return static_cast<double>(max) / mean;
}

// ---- extensions beyond the paper's evaluation ----------------------------

constexpr double kHoursPerYear = 24.0 * 365.0;

/// The Section 1 footnote (system MTTF of non-redundant disks at 100,000 h
/// each) and MTTDL, disk count and storage overhead of every organization
/// on the trace 1 database (130 data disks).
void print_reliability(Report& report) {
  TablePrinter footnote({"non-redundant disks", "system MTTF (days)"});
  for (int disks : {50, 100, 130, 150, 151, 200}) {
    const double days =
        system_mttdl_hours(Organization::kBase, disks, 10) / 24.0;
    footnote.add_row({std::to_string(disks), TablePrinter::num(days, 1)});
    report.set("footnote", "system MTTF (days)", std::to_string(disks), days);
  }
  footnote.print(std::cout);
  std::cout << "\n";

  const ReliabilityParams params;  // 100,000 h MTTF, 24 h repair
  TablePrinter table({"organization", "N", "disks", "overhead",
                      "group MTTDL (yr)", "system MTTDL (yr)"});
  const int database = 130;  // trace 1
  for (auto org : kOrgs) {
    for (int n : {5, 10, 20}) {
      if (org == Organization::kBase && n != 10) continue;
      if (org == Organization::kMirror && n != 10) continue;
      const double years =
          system_mttdl_hours(org, database, n, params) / kHoursPerYear;
      table.add_row(
          {to_string(org), std::to_string(n),
           std::to_string(disks_required(org, database, n)),
           TablePrinter::num(100.0 * storage_overhead(org, n), 0) + "%",
           TablePrinter::num(group_mttdl_hours(org, n, params) / kHoursPerYear,
                             1),
           TablePrinter::num(years, 1)});
      report.set("system MTTDL (yr)", to_string(org),
                 "N=" + std::to_string(n), years);
    }
  }
  table.print(std::cout);
  std::cout << "\nLarger parity groups trade MTTDL (and rebuild time; see "
               "degraded_rebuild) for fewer parity disks.\n";
}

/// Simulated whole failure/repair lifetimes per organization against the
/// closed-form MTTDL of core/reliability.hpp.
void print_mttdl_montecarlo(const BenchOptions& options, Report& report) {
  const int lifetimes = 1000;
  MttdlConfig base;  // paper parameters: 100,000 h MTTF, 24 h MTTR
  // --seed=k draws with seed k + 1: the default 0 keeps the preset seed 1,
  // and every k draws its own lifetimes.
  base.seed = options.seed + 1;
  TablePrinter table({"organization", "D", "N", "analytic (yr)",
                      "simulated (yr)", "95% CI (yr)", "sim/analytic",
                      "within 2x"});
  const auto add = [&](const std::string& label, Organization org, int d,
                       int n) {
    MttdlConfig config = base;
    config.organization = org;
    config.total_data_disks = d;
    config.array_data_disks = n;
    const MttdlEstimate est = simulate_mttdl(config, lifetimes);
    table.add_row(
        {label, std::to_string(d), std::to_string(n),
         TablePrinter::num(est.analytic_hours / kHoursPerYear, 2),
         TablePrinter::num(est.mean_hours / kHoursPerYear, 2),
         TablePrinter::num(est.ci_low_hours / kHoursPerYear, 2) + ".." +
             TablePrinter::num(est.ci_high_hours / kHoursPerYear, 2),
         TablePrinter::num(est.ratio(), 3),
         est.agrees_within(2.0) ? "yes" : "NO"});
    const std::string x =
        label + " D=" + std::to_string(d) + " N=" + std::to_string(n);
    report.set("MTTDL", "analytic (yr)", x, est.analytic_hours / kHoursPerYear);
    report.set("MTTDL", "simulated (yr)", x, est.mean_hours / kHoursPerYear);
    report.set("MTTDL", "sim/analytic", x, est.ratio());
  };
  // Base: no redundancy, MTTDL = MTTF / D.
  for (int d : {50, 100, 200}) add("Base", Organization::kBase, d, 10);
  for (int n : {4, 10}) add("Mirrored", Organization::kMirror, n, n);
  for (int n : {4, 10, 20}) add("RAID5", Organization::kRaid5, n, n);
  add("Parity Striping", Organization::kParityStriping, 10, 10);
  table.print(std::cout);
  std::cout
      << "\nEach row is " << lifetimes
      << " independent simulated lifetimes (exponential failures and "
         "repairs, only the failure/repair epochs are drawn).\n"
         "Base scales as MTTF/D; the redundant organizations sit orders "
         "of magnitude higher and shrink as group size grows, matching "
         "Section 4.2.1's large-array reliability caveat.\n";
}

/// Load scaled by multiprogramming level: response and throughput per
/// organization on the trace 2 profile.
void print_closed_loop(const BenchOptions& options, Report& report) {
  const std::vector<int> mpls{1, 4, 16, 64};
  std::vector<Series> response, throughput;
  for (auto org : {Organization::kBase, Organization::kMirror,
                   Organization::kRaid5, Organization::kRaid10,
                   Organization::kParityStriping}) {
    response.push_back({to_string(org), {}});
    throughput.push_back({to_string(org), {}});
    for (int mpl : mpls) {
      SimulationConfig config;
      config.organization = org;
      ClosedLoopOptions loop;
      loop.clients = mpl;
      loop.think_time_ms = 20.0;
      loop.requests = std::max<std::uint64_t>(
          200, static_cast<std::uint64_t>(8000 * options.scale2));
      loop.seed = options.seed;
      const auto result = run_closed_loop(config, loop);
      response.back().values.push_back(result.mean_response_ms());
      throughput.back().values.push_back(result.throughput_io_per_s);
    }
  }
  const auto xs =
      labels(mpls, [](int mpl) { return "MPL=" + std::to_string(mpl); });
  print_series_table("clients", xs, "trace2 profile", response);
  print_series_table("clients", xs, "trace2 profile", throughput, "IO/s");
  record(report, "response (ms)", xs, response);
  record(report, "IO/s", xs, throughput);
}

/// Disk 0 of array 0: healthy, failed, or failed and rebuilding online.
enum class DiskState { kHealthy, kDegraded, kRebuilding };

/// Uncached `org` with N data disks per array replaying `trace`, disk 0 of
/// array 0 in `state` (every array sees statistically similar load, so
/// which one fails does not matter for the shape).
Metrics run_failed_disk(Organization org, int n, DiskState state,
                        const std::string& trace, const BenchOptions& options,
                        const PointTrace& traced) {
  SimulationConfig config = uncached(org);
  config.array_data_disks = n;
  auto stream = make_workload(trace, options.workload_options(trace));
  Simulator sim(traced.apply(config), stream->geometry());
  traced.attach(sim);
  std::unique_ptr<RebuildProcess> rebuild;
  if (state != DiskState::kHealthy) sim.mutable_controller(0).fail_disk(0);
  if (state == DiskState::kRebuilding) {
    RebuildProcess::Options ro;
    ro.blocks_per_pass = 18;     // three tracks per pass
    ro.inter_pass_gap_ms = 2.0;  // mildly throttled sweep
    rebuild = std::make_unique<RebuildProcess>(sim.event_queue(),
                                               sim.mutable_controller(0), ro);
    rebuild->start(nullptr);
  }
  return sim.run(*stream);
}

/// Uncached `org` (N=10) replaying `trace` with disk 1 of array 0
/// sticky-slow by `factor` (1 = none), the tail-tolerance policies on or
/// off: mirror redirect-on-slow, parity reconstruct-on-slow, both hedged.
Metrics run_sticky_slow(Organization org, double factor, bool policies,
                        const std::string& trace, const BenchOptions& options,
                        const PointTrace& traced) {
  SimulationConfig config = uncached(org);
  config.array_data_disks = 10;
  config.tail = policies;
  auto stream = make_workload(trace, options.workload_options(trace));
  Simulator sim(traced.apply(config), stream->geometry());
  traced.attach(sim);
  std::vector<ArrayController*> arrays;
  for (int a = 0; a < sim.arrays(); ++a)
    arrays.push_back(&sim.mutable_controller(a));
  SlowdownConfig slow;
  slow.manual_sticky = true;  // hooks installed, straggler placed by hand
  slow.sticky_factor = factor;
  SlowdownInjector injector(sim.event_queue(), arrays, slow);
  if (factor > 1.0) {
    injector.arm();
    injector.force_sticky(/*array=*/0, /*disk=*/1);
  }
  return sim.run(*stream);
}

/// Percentiles of one fail-slow table, policies off (cells[0]) against on
/// (cells[1]) per severity.
void print_tail_table(const std::string& trace, Organization org,
                      const std::vector<std::string>& xs, const Cells& cells,
                      Report& report) {
  static const std::vector<std::pair<std::string, double>> kQuantiles{
      {"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}};
  std::vector<std::string> header{"slowdown"};
  for (const auto& [name, q] : kQuantiles)
    for (const char* policies : {" off", " on"})
      header.push_back(name + policies);
  TablePrinter table(header);
  for (std::size_t x = 0; x < xs.size(); ++x) {
    std::vector<std::string> row{xs[x]};
    for (const auto& [name, q] : kQuantiles)
      for (std::size_t on = 0; on < 2; ++on) {
        const double ms = cells[on][x]->response_all.histogram().quantile(q);
        report.set(trace + " / " + to_string(org), header[row.size()], xs[x],
                   ms);
        row.push_back(TablePrinter::num(ms));
      }
    table.add_row(row);
  }
  std::cout << trace << " -- " << to_string(org)
            << " (response ms, policies off vs on)\n";
  table.print(std::cout);
  std::cout << "\n";
}

// ---- the rows ---------------------------------------------------------

const std::vector<Row>& rows() {
  static const std::vector<SyncPolicy> kPolicies{
      SyncPolicy::kSimultaneousIssue, SyncPolicy::kReadFirst,
      SyncPolicy::kReadFirstPriority, SyncPolicy::kDiskFirst,
      SyncPolicy::kDiskFirstPriority};
  static const std::vector<SizeCache> kFig13{{5, 8}, {10, 16}, {15, 24}};
  static const std::vector<SizeCache> kFig17{{5, 8}, {10, 16}, {20, 32}};
  static const std::vector<double> kSigmas{0.0, 0.5, 1.0, 1.5};
  static const std::vector<Organization> kSchedOrgs{
      Organization::kBase, Organization::kRaid5,
      Organization::kParityStriping};
  static const std::vector<DiskScheduling> kSchedPolicies{
      DiskScheduling::kFifo, DiskScheduling::kSstf, DiskScheduling::kScan};
  static const std::vector<Row> all{
      {"table2", "Tables 1-2: disk parameters and trace characteristics",
       "synthetic stand-ins must reproduce the published Table 2 counts "
       "(scaled by --scale)",
       1.0,  // statistics collection is cheap; run in full
       1.0,
       [](const BenchOptions& options) {
         return std::vector<Table>{{.print = [options](const Cells&,
                                                       Report& report) {
           print_table1();
           std::vector<TraceStats> stats;
           for (const auto& trace : kTraces) {
             auto stream =
                 make_workload(trace, options.workload_options(trace));
             stats.push_back(TraceStats::collect(*stream));
             report.set("Table 2", trace, "write fraction",
                        stats.back().write_fraction());
             report.set("Table 2", trace, "single-block fraction",
                        stats.back().single_block_fraction());
           }
           std::cout << "Table 2 (synthetic stand-ins; trace1 scaled by "
                     << options.scale1 << ", trace2 by " << options.scale2
                     << ")\n";
           std::cout << TraceStats::table({&stats[0], &stats[1]},
                                          {"Trace 1", "Trace 2"});
         }}};
       },
       {{"Table 2: 0.09 <= trace1[write fraction] <= 0.11 -- published 0.100",
         3},
        {"Table 2: 0.273 <= trace2[write fraction] <= 0.293 -- published 0.283",
         3},
        {"Table 2: 0.969 <= trace1[single-block fraction] <= 0.989 -- "
         "published 0.979",
         3},
        {"Table 2: 0.938 <= trace2[single-block fraction] <= 0.958 -- "
         "published 0.948",
         3}}},

      {"fig04", "Figure 4: synchronization policies vs array size (uncached)",
       "SI clearly worst; DF < RF; /PR variants better; DF/PR best; "
       "gaps narrow with larger arrays",
       0.05,  // 2 orgs x 5 policies x 4 sizes x 2 traces
       0.5,
       [](const BenchOptions&) {
         std::vector<Table> tables;
         for (auto org : {Organization::kRaid5, Organization::kParityStriping})
           for (const auto& trace : kTraces)
             tables.push_back(
                 {.trace = trace,
                  .title = to_string(org) + " / " + trace,
                  .x_name = "array size",
                  .xs = kSizeLabels,
                  .series = names(kPolicies),
                  .point = [org](std::size_t s, std::size_t x) {
                    Point p{uncached(org)};
                    p.config.array_data_disks = kSizes[x];
                    p.config.sync = kPolicies[s];
                    return p;
                  }});
         return tables;
       },
       {{"RAID5 / trace2, ParStrip / trace2: RF, RF/PR, DF, DF/PR < SI", 3},
        {"DF < RF", 3},
        {"RAID5 / trace1, ParStrip / trace1: RF, RF/PR, DF, DF/PR < SI", 0},
        {"RF/PR < RF and DF/PR < DF", 0},
        {"DF/PR < SI, RF, RF/PR, DF", 0},
        {"RAID5 / trace2: SI[N=10] - DF[N=10] < SI[N=5] - DF[N=5] -- the "
         "gap narrows with N",
         1}}},

      {"fig05", "Figure 5: response time vs array size (uncached)",
       "Trace1: Mirror < Base < RAID5 (+32% at N=10) < ParStrip; "
       "Trace2: RAID5 beats Base via load balancing",
       0.2, 1.0,
       each_trace({.x_name = "array size",
                   .xs = kSizeLabels,
                   .series = names(kOrgs),
                   .point = [](std::size_t s, std::size_t x) {
                     Point p{uncached(kOrgs[s])};
                     p.config.array_data_disks = kSizes[x];
                     return p;
                   }}),
       {{"trace1: Mirror < Base < RAID5", 3},
        {"trace1: 1.05 * Base <= RAID5 @ N=10 -- paper: +32%", 3},
        {"trace2: Mirror < Base and RAID5 < ParStrip", 3},
        {"trace1: RAID5 < ParStrip", 2},
        {"trace2: RAID5 < Base @ N=10 -- load balancing", 2},
        {"trace2: Mirror < Base, RAID5 < ParStrip", 2}}},

      {"fig06_07", "Figures 6-7: access distribution over disks (Trace 1)",
       "Base inherits the workload's disk skew; RAID5 (1-block striping "
       "unit) smooths it out",
       0.2, 1.0,
       [](const BenchOptions&) {
         return std::vector<Table>{
             {.trace = "trace1",
              .xs = {"accesses"},
              .series = {"Base", "RAID5"},
              .point = [](std::size_t s, std::size_t) {
                Point p;
                p.config.organization =
                    s == 0 ? Organization::kBase : Organization::kRaid5;
                return p;
              },
              .print = [](const Cells& cells, Report& report) {
                print_distribution("Figure 6 -- Base organization",
                                   *cells[0][0]);
                print_distribution(
                    "Figure 7 -- RAID5, striping unit = 1 block", *cells[1][0]);
                TablePrinter summary({"organization", "access CV", "max/mean"});
                for (std::size_t s = 0; s < 2; ++s) {
                  const Metrics& m = *cells[s][0];
                  const std::string name = s == 0 ? "Base" : "RAID5";
                  summary.add_row({name,
                                   TablePrinter::num(m.disk_access_cv(), 3),
                                   TablePrinter::num(max_over_mean(m), 2)});
                  report.set("summary", name, "access CV", m.disk_access_cv());
                  report.set("summary", name, "max/mean", max_over_mean(m));
                }
                summary.print(std::cout);
              }}};
       },
       {{"summary: 2 * RAID5 < Base @ access CV", 3},
        {"summary: 2 * RAID5 < Base @ max/mean", 2}}},

      {"fig08",
       "Figure 8: response time vs striping unit (uncached RAID5, N=10)",
       "Trace1 optimum ~8 blocks (flat 1..16); Trace2 optimum 1 block; "
       ">=32 blocks degrades toward Parity Striping",
       0.2, 1.0,
       each_trace({.x_name = "striping unit",
                   .xs = kUnitLabels,
                   .series = {"RAID5", "ParStrip (ref)"},
                   .point = [](std::size_t s, std::size_t x) {
                     Point p;
                     if (s == 1) {  // the "infinite unit" limit
                       p.config.organization =
                           Organization::kParityStriping;
                       return p;
                     }
                     p.config = uncached(Organization::kRaid5);
                     p.config.striping_unit_blocks = kUnits[x];
                     return p;
                   }}),
       {{"trace1: RAID5 <= 1.1 * RAID5[8 blk] @ 1 blk, 2 blk, 4 blk, 16 blk "
         "-- flat from 1 to 16 blocks",
         3},
        {"RAID5[8 blk] < RAID5 @ 1 blk, 32 blk, 64 blk -- the optimum lies "
         "between",
         3},
        {"trace1: 0.9 * ParStrip (ref) < RAID5 < 1.1 * ParStrip (ref) @ 64 blk",
         3},
        {"trace2: RAID5[1 blk] < RAID5 @ 2 blk, 4 blk, 8 blk, 16 blk, 32 blk, "
         "64 blk",
         0}}},

      {"fig09", "Figure 9: parity placement in Parity Striping vs array size",
       "middle placement worse for small N (big central parity area); "
       "crossover near N ~ 1/w (~10 for Trace 1)",
       0.2, 1.0,
       [](const BenchOptions& options) {
         static const std::vector<ParityPlacement> placements{
             ParityPlacement::kMiddleCylinders, ParityPlacement::kEndCylinders};
         auto tables =
             each_trace({.x_name = "array size",
                         .xs = kSizeLabels,
                         .series = names(placements),
                         .point = [](std::size_t s, std::size_t x) {
                           Point p{uncached(Organization::kParityStriping)};
                           p.config.array_data_disks = kSizes[x];
                           p.config.parity_placement = placements[s];
                           return p;
                         }})(options);
         for (auto& table : tables) {
           // The paper's analytic rule (Section 4.2.3) next to the
           // measurement.
           const double w = table.trace == "trace1" ? 0.10 : 0.28;
           table.footer = [w](const Cells&) {
             std::cout << "analytic rule for w=" << w
                       << ": middle wins for N >= "
                       << placement_crossover_array_size(w) << "\n\n";
           };
         }
         return tables;
       },
       {{"trace1: end < middle @ N=5", 3},
        {"trace1: middle < end @ N=10, N=15, N=20", 3},
        {"trace2: middle < end -- the rule for w = 0.28", 2},
        {"trace2: end < middle @ N=5 -- the paper's trace 2 broke the rule",
         1}}},

      {"fig10", "Figure 10: response time vs trace speed (uncached)",
       "RAID5 degrades gracefully (beats Mirror at 2x); ParStrip and "
       "Base degrade severely; Base beats RAID5 at 0.5x on Trace 2",
       0.1, 1.0,
       each_trace({.x_name = "trace speed",
                   .xs = kSpeedLabels,
                   .series = names(kOrgs),
                   .point = [](std::size_t s, std::size_t x) {
                     return Point{uncached(kOrgs[s]), kSpeeds[x]};
                   }}),
       {{"trace1: Mirror < Base, RAID5, ParStrip", 3},
        {"trace2: RAID5 < ParStrip", 3},
        {"trace2: RAID5 < Base @ 2.0x", 2},
        {"trace2: RAID5 < Mirror @ 2.0x", 1},
        {"trace2: Base < RAID5 @ 0.5x", 1}}},

      {"fig11",
       "Figure 11: hit ratio vs cache size (parity vs non-parity orgs)",
       "Trace1: write hit ~1 for large caches, read hit 9%@8MB -> "
       "54%@256MB; Trace2: write 20%->60%, read <1%@8MB -> 40%@256MB; "
       "old-data retention costs a few points at small caches",
       0.25,  // hit-ratio curves need long traces to warm up
       1.0,
       each_trace(hit_ratios({"Base read", "RAID5 read", "Base write",
                              "RAID5 write"},
                             [](std::size_t s, std::int64_t mb) {
                               return cached(s ? Organization::kRaid5
                                               : Organization::kBase,
                                             mb);
                             })),
       {{"-1 <= Base read - RAID5 read <= 1 -- old-data retention costs at "
         "most a point",
         3},
        {"trace1: Base read < Base write", 3},
        {"trace2: Base read[8 MB] < 5 < 20 < Base read[256 MB] -- paper: <1% "
         "and ~40%",
         3},
        {"trace2: [8 MB] < [16 MB] < [32 MB] < [64 MB] < [128 MB] < [256 MB] "
         "@ Base read, Base write",
         3},
        {"trace1: [8 MB] < [16 MB] < [32 MB] < [64 MB] < [128 MB] < [256 MB] "
         "@ Base read -- the CI scale's short trace fits a 32 MB cache",
         0}}},

      {"fig12", "Figure 12: response time vs cache size (cached organizations)",
       "a 16 MB cache nearly eliminates RAID5's write penalty on "
       "Trace 1; on Trace 2 RAID5 beats Base via load balancing",
       0.15, 1.0,
       each_trace({.x_name = "cache size",
                   .xs = kCacheLabels,
                   .series = names(kOrgs),
                   .point = [](std::size_t s, std::size_t x) {
                     return Point{cached(kOrgs[s], kCacheMb[x])};
                   }}),
       {{"Mirror < Base", 3},
        {"[256 MB] < [8 MB] @ Base, Mirror, RAID5, ParStrip", 3},
        {"trace1: RAID5 <= 1.05 * Base @ 16 MB -- paper: +1%", 2},
        {"trace2: RAID5 < Base", 2},
        {"trace2: RAID5 < Mirror @ 8 MB, 16 MB, 32 MB", 1},
        {"RAID5 < ParStrip", 0}}},

      {"fig13", "Figure 13: array size at equal total cache (cached)",
       "shared-vs-partitioned cache is a second-order effect next to "
       "arm count and load balancing",
       0.15, 1.0,
       each_trace({.x_name = "array size / cache",
                   .xs = {"N=5/8MB", "N=10/16MB", "N=15/24MB"},
                   .series = names(kOrgs),
                   .point = [](std::size_t s, std::size_t x) {
                     Point p{cached(kOrgs[s], kFig13[x].cache_mb)};
                     p.config.array_data_disks = kFig13[x].n;
                     return p;
                   }}),
       {{"trace1: 0.95 * [N=10/16MB] < [N=5/8MB], [N=15/24MB] < 1.05 * "
         "[N=10/16MB] @ Base, Mirror",
         3},
        {"trace1: [N=15/24MB] < [N=5/8MB] @ Base, Mirror -- the larger "
         "shared cache wins",
         0}}},

      {"fig14", "Figure 14: response time vs striping unit (cached RAID5)",
       "Trace1 optimum grows to ~16 blocks under a cache; Trace2 stays "
       "at 1 block (low hit ratio keeps the load high)",
       0.15, 1.0,
       each_trace({.x_name = "striping unit",
                   .xs = kUnitLabels,
                   .series = {"RAID5 (16MB cache)"},
                   .point = [](std::size_t, std::size_t x) {
                     Point p{cached(Organization::kRaid5)};
                     p.config.striping_unit_blocks = kUnits[x];
                     return p;
                   }}),
       {{"[4 blk] < [1 blk], [64 blk] @ RAID5 (16MB cache) -- the optimum "
         "lies between",
         3},
        {"trace1: [16 blk] < [1 blk], [2 blk], [4 blk], [8 blk], [32 blk], "
         "[64 blk] @ RAID5 (16MB cache)",
         0},
        {"trace2: [1 blk] < [2 blk], [4 blk], [8 blk], [16 blk], [32 blk], "
         "[64 blk] @ RAID5 (16MB cache)",
         0}}},

      {"fig15",
       "Figure 15: hit ratio vs cache size (RAID5 vs RAID4+parity caching)",
       "parity slots cost little hit ratio; the visible gap sits where "
       "hit ratios are tiny anyway",
       0.25, 1.0,
       each_trace(hit_ratios({"RAID5 read", "RAID4 read", "RAID5 write",
                              "RAID4 write"},
                             [](std::size_t s, std::int64_t mb) {
                               return raid5_or_raid4(s, mb);
                             })),
       {{"-0.5 <= RAID5 read - RAID4 read <= 0.5", 3},
        {"-1 <= RAID5 write - RAID4 write <= 1", 3}}},

      {"fig16",
       "Figure 16: response time vs cache size (RAID5 vs RAID4+parity)",
       "RAID4+parity caching ahead of RAID5: ~1-2% on Trace 1, up to "
       "~15% on Trace 2 at 16 MB, narrowing with cache size",
       0.15, 1.0,
       each_trace({.x_name = "cache size",
                   .xs = kCacheLabels,
                   .series = {"RAID5", "RAID4+parity"},
                   .point = [](std::size_t s, std::size_t x) {
                     return Point{raid5_or_raid4(s, kCacheMb[x])};
                   }}),
       {{"trace2: RAID4+parity < RAID5", 3},
        {"trace2: RAID4+parity <= 0.97 * RAID5 @ 16 MB -- paper: ~15% ahead",
         3},
        {"trace2: RAID5[256 MB] - RAID4+parity[256 MB] < RAID5[16 MB] - "
         "RAID4+parity[16 MB]",
         3},
        {"trace1: RAID4+parity < RAID5", 0}}},

      {"fig17", "Figure 17: array size at equal total cache (RAID5 vs RAID4)",
       "RAID5 ahead at N=5; RAID4 ahead from N=10, widening with N", 0.15,
       1.0,
       each_trace({.x_name = "array size / cache",
                   .xs = {"N=5/8MB", "N=10/16MB", "N=20/32MB"},
                   .series = {"RAID5", "RAID4+parity"},
                   .point = [](std::size_t s, std::size_t x) {
                     Point p{raid5_or_raid4(s, kFig17[x].cache_mb)};
                     p.config.array_data_disks = kFig17[x].n;
                     return p;
                   }}),
       {{"trace2: RAID4+parity < RAID5 @ N=10/16MB, N=20/32MB", 3},
        {"trace1: RAID5 < RAID4+parity @ N=5/8MB", 3},
        {"trace1: RAID4+parity < RAID5 @ N=20/32MB", 3},
        {"trace2: RAID5 < RAID4+parity @ N=5/8MB", 2},
        {"trace2: RAID5[N=10/16MB] - RAID4+parity[N=10/16MB] < "
         "RAID5[N=20/32MB] - RAID4+parity[N=20/32MB]",
         0}}},

      {"fig18",
       "Figure 18: response time vs trace speed (RAID5 vs RAID4+parity)",
       "RAID4's advantage grows with load; the spooled parity disk "
       "keeps up even at 2x",
       0.1, 1.0,
       each_trace({.x_name = "trace speed",
                   .xs = kSpeedLabels,
                   .series = {"RAID5", "RAID4+parity"},
                   .point = [](std::size_t s, std::size_t x) {
                     return Point{raid5_or_raid4(s), kSpeeds[x]};
                   },
                   .footer = [](const Cells& cells) {
                     std::cout
                         << "RAID4 peak buffered parity blocks per speed:";
                     for (const Metrics* m : cells[1])
                       std::cout << ' ' << m->controller.parity_queue_peak;
                     std::cout << "\n\n";
                   }}),
       {{"trace2: RAID4+parity < RAID5", 3},
        {"trace2: RAID5[0.5x] - RAID4+parity[0.5x] < RAID5[1.0x] - "
         "RAID4+parity[1.0x] < RAID5[2.0x] - RAID4+parity[2.0x]",
         3},
        {"trace1: RAID4+parity < RAID5 @ 2.0x", 0}}},

      {"fig19", "Figure 19: striping unit (RAID5 vs RAID4+parity caching)",
       "U-shaped curves; optimum smaller for the hotter Trace 2", 0.15, 1.0,
       each_trace({.x_name = "striping unit",
                   .xs = kUnitLabels,
                   .series = {"RAID5", "RAID4+parity"},
                   .point = [](std::size_t s, std::size_t x) {
                     Point p{raid5_or_raid4(s)};
                     p.config.striping_unit_blocks = kUnits[x];
                     return p;
                   }}),
       {{"trace1: [4 blk] < [1 blk], [64 blk] @ RAID5, RAID4+parity -- "
         "U-shaped",
         3},
        {"trace2: RAID5[8 blk] < RAID5[1 blk], RAID5[64 blk] and "
         "RAID4+parity[16 blk] < RAID4+parity[1 blk], RAID4+parity[64 blk] -- "
         "U-shaped",
         3},
        {"trace2: [4 blk] < [8 blk] @ RAID5, RAID4+parity -- a smaller "
         "optimum than trace 1's",
         0}}},

      {"abl_destage_policy", "Ablation: periodic destage vs pure-LRU writeback",
       "periodic destage always wins (Section 3.4)", 0.15, 1.0,
       on_off({Organization::kBase, Organization::kMirror,
               Organization::kRaid5},
              " destage", " pure-LRU", &SimulationConfig::periodic_destage),
       {{"trace2: Base destage < Base pure-LRU and Mirror destage < Mirror "
         "pure-LRU and RAID5 destage < RAID5 pure-LRU",
         3},
        {"trace1: Base destage < Base pure-LRU and Mirror destage < Mirror "
         "pure-LRU and RAID5 destage < RAID5 pure-LRU @ 8 MB, 16 MB",
         3},
        {"trace1: Base destage < Base pure-LRU and Mirror destage < Mirror "
         "pure-LRU and RAID5 destage < RAID5 pure-LRU @ 64 MB -- the CI "
         "scale's short trace never fills 64 MB",
         0}}},

      {"abl_old_data_retention",
       "Ablation: old-data retention in the cache (parity organizations)",
       "retention converts destage data RMWs into plain writes at the "
       "cost of cache slots",
       0.15, 1.0,
       on_off({Organization::kRaid5, Organization::kParityStriping}, " +old",
              " -old", &SimulationConfig::retain_old_data),
       {{"RAID5 +old < RAID5 -old and ParStrip +old < ParStrip -old", 3}}},

      {"abl_skew_sensitivity",
       "Ablation: RAID5-vs-Base gap as a function of disk skew",
       "no skew -> write penalty dominates (Menon-Mattson); heavy skew "
       "-> load balancing wins (Trace 2 regime)",
       0.2, 1.0,
       [](const BenchOptions& options) {
         const auto point = [options](std::size_t s, std::size_t x) {
           TraceProfile profile = TraceProfile::trace2();
           profile.requests = static_cast<std::uint64_t>(
               static_cast<double>(profile.requests) * options.scale2);
           profile.duration_s *= options.scale2;
           profile.disk_skew_sigma = kSigmas[x];
           if (options.seed) profile.seed = options.seed;
           Point p;
           p.config.organization =
               s == 0 ? Organization::kBase : Organization::kRaid5;
           p.run = [config = p.config, profile](const PointTrace& traced) {
             SyntheticTrace trace(profile);
             Simulator sim(traced.apply(config), trace.geometry());
             traced.attach(sim);
             return sim.run(trace);
           };
           return p;
         };
         const auto xs = labels(kSigmas, [](double sigma) {
           return "sigma=" + TablePrinter::num(sigma, 1);
         });
         const auto print = [xs](const Cells& cells, Report& report) {
           Series base{"Base", {}}, raid5{"RAID5", {}}, ratio{"RAID5/Base", {}};
           for (std::size_t x = 0; x < xs.size(); ++x) {
             base.values.push_back(cells[0][x]->mean_response_ms());
             raid5.values.push_back(cells[1][x]->mean_response_ms());
             ratio.values.push_back(raid5.values.back() / base.values.back());
           }
           print_table(report, "disk skew", xs, "trace2-derived workload",
                       {base, raid5, ratio});
           std::cout << "RAID5/Base > 1 means the write penalty dominates;\n"
                        "< 1 means load balancing wins.\n";
         };
         return std::vector<Table>{{.xs = xs,
                                    .series = {"Base", "RAID5"},
                                    .point = point,
                                    .print = print}};
       },
       {{"RAID5/Base[sigma=1.5] < 1 < 1.3 < RAID5/Base[sigma=0.0] -- "
         "Menon-Mattson: ~1.5 without skew",
         3},
        {"RAID5/Base[sigma=1.5] < RAID5/Base[sigma=1.0] < "
         "RAID5/Base[sigma=0.5] < RAID5/Base[sigma=0.0]",
         2}}},

      {"abl_fine_parity_striping",
       "Ablation: fine-grained parity striping (Section 5 future work)",
       "rotating the parity-update load should recover part of RAID5's "
       "advantage while keeping Parity Striping's seek affinity",
       0.1, 1.0,
       each_trace({.x_name = "array size",
                   .xs = {"N=5", "N=10"},
                   .series = {"ParStrip", "ParStrip fine", "RAID5"},
                   .point = [](std::size_t s, std::size_t x) {
                     Point p{uncached(s == 2
                                          ? Organization::kRaid5
                                          : Organization::kParityStriping)};
                     p.config.array_data_disks = kSizes[x];
                     if (s == 1) p.config.parity_fine_grain_chunk_blocks = 64;
                     return p;
                   }}),
       {{"trace2: RAID5 < ParStrip fine < ParStrip @ N=5", 3},
        {"ParStrip fine <= ParStrip", 2}}},

      {"abl_disk_scheduling",
       "Ablation: disk queue scheduling (FIFO vs SSTF vs SCAN)",
       "seek-optimising schedulers help most where queues are long "
       "(Base/ParStrip hot disks); orderings should be robust",
       0.1, 1.0,
       each_trace({.xs = {"response"},
                   .series =
                       [] {
                         std::vector<std::string> series;
                         for (auto org : kSchedOrgs)
                           for (auto policy : kSchedPolicies)
                             series.push_back(to_string(org) + " " +
                                              to_string(policy));
                         return series;
                       }(),
                   .point = [](std::size_t s, std::size_t) {
                     Point p{uncached(kSchedOrgs[s / 3])};
                     p.config.disk_scheduling = kSchedPolicies[s % 3];
                     return p;
                   }}),
       {{"Base SSTF, Base SCAN < Base FIFO and RAID5 SSTF, RAID5 SCAN < RAID5 "
         "FIFO and ParStrip SSTF, ParStrip SCAN < ParStrip FIFO",
         3},
        {"Base FIFO < RAID5 FIFO < ParStrip FIFO and Base SSTF < RAID5 SSTF < "
         "ParStrip SSTF and Base SCAN < RAID5 SCAN < ParStrip SCAN",
         0}}},

      // ---- extensions beyond the paper's evaluation ----

      {"reliability", "Extension: reliability (MTTDL) of the organizations",
       "Section 1: >150 non-redundant disks -> storage MTTF under 28 "
       "days; redundancy recovers orders of magnitude",
       0.2, 1.0,  // analytic: the scales are not used
       [](const BenchOptions&) {
         return std::vector<Table>{{.print = [](const Cells&, Report& report) {
           print_reliability(report);
         }}};
       },
       {{"footnote: [150], [151], [200] < 28 < [130] @ system MTTF (days) -- "
         "Section 1: over 150 disks, under 28 days",
         3},
        {"system MTTDL (yr): RAID5[N=20] < RAID5[N=10] < RAID5[N=5] and "
         "ParStrip[N=20] < ParStrip[N=10] < ParStrip[N=5] -- Section 4.2.1: "
         "large arrays are less reliable",
         3},
        {"system MTTDL (yr): 100 * Base[N=10] < RAID5[N=20], ParStrip[N=20], "
         "Mirror[N=10] -- redundancy recovers orders of magnitude",
         3}}},

      {"mttdl_montecarlo", "Extension: Monte-Carlo MTTDL vs the analytic model",
       "Section 1: redundant organizations only lose data when a second "
       "failure strikes a group inside the first's repair window",
       0.2, 1.0,  // no trace: the scales are not used
       [](const BenchOptions& options) {
         return std::vector<Table>{
             {.print = [options](const Cells&, Report& report) {
               print_mttdl_montecarlo(options, report);
             }}};
       },
       {{"0.5 < sim/analytic < 2 -- every row within 2x of the analytic model",
         3},
        {"[RAID5 D=20 N=20] < [RAID5 D=10 N=10] < [RAID5 D=4 N=4] @ "
         "analytic (yr), simulated (yr) -- MTTDL falls with N",
         3},
        {"[Base D=200 N=10] < [Base D=100 N=10] < [Base D=50 N=10] @ "
         "analytic (yr), simulated (yr) -- Base scales as MTTF/D",
         3},
        {"100 * [Base D=50 N=10] < [Mirrored D=4 N=4], [Mirrored D=10 N=10], "
         "[RAID5 D=20 N=20], [Parity Striping D=10 N=10] @ simulated (yr)",
         3}}},

      {"closed_loop", "Extension: closed-loop load scaling (MPL sweep)",
       "load scaled by multiprogramming level instead of trace speedup; "
       "RAID5's balancing shows as higher sustained throughput",
       0.2, 1.0,  // the request count scales with --scale2
       [](const BenchOptions& options) {
         return std::vector<Table>{
             {.print = [options](const Cells&, Report& report) {
               print_closed_loop(options, report);
             }}};
       },
       {{"IO/s: Base, Mirror, RAID5, ParStrip < RAID10 @ MPL=64", 3},
        {"IO/s: ParStrip < Base, Mirror, RAID5, RAID10 @ MPL=64", 3},
        {"response (ms): [MPL=1] < [MPL=4] < [MPL=16] < [MPL=64] @ Base, "
         "Mirror, RAID5, RAID10, ParStrip",
         3},
        {"IO/s: ParStrip < Base < RAID5 < Mirror < RAID10 @ MPL=64", 1},
        {"IO/s: Base < RAID5 @ MPL=16, MPL=64 -- load balancing", 2},
        {"IO/s: [MPL=1] < [MPL=4] < [MPL=16] < [MPL=64] @ Base, Mirror, "
         "RAID5, RAID10, ParStrip",
         2}}},

      {"degraded_rebuild", "Extension: degraded-mode and rebuild performance",
       "degraded reads fan out to all N survivors, so larger arrays pay "
       "more per reconstruction and rebuild interferes longer",
       0.05, 0.5,
       [](const BenchOptions& options) {
         static const std::vector<int> sizes{5, 10, 20};
         static const std::vector<Organization> orgs{
             Organization::kMirror, Organization::kRaid5,
             Organization::kParityStriping};
         std::vector<std::string> series;
         for (auto org : orgs)
           for (const char* state : {" ok", " degr", " rebld"})
             series.push_back(to_string(org) + state);
         std::vector<Table> tables;
         for (const auto& trace : kTraces)
           tables.push_back(
               {.trace = trace,
                .x_name = "array size",
                .xs = labels(sizes,
                             [](int n) { return "N=" + std::to_string(n); }),
                .series = series,
                .point = [options, trace](std::size_t s, std::size_t x) {
                  Point p;
                  p.run = [options, trace, s, x](const PointTrace& traced) {
                    return run_failed_disk(orgs[s / 3], sizes[x],
                                           static_cast<DiskState>(s % 3),
                                           trace, options, traced);
                  };
                  return p;
                }});
         return tables;
       },
       {{"trace1: RAID5 degr[N=5] - RAID5 ok[N=5] < RAID5 degr[N=10] - RAID5 "
         "ok[N=10] < RAID5 degr[N=20] - RAID5 ok[N=20] -- Section 4.2.1: the "
         "degraded penalty grows with N",
         3},
        {"trace1: ParStrip degr[N=5] - ParStrip ok[N=5] < ParStrip degr[N=10] "
         "- ParStrip ok[N=10] < ParStrip degr[N=20] - ParStrip ok[N=20]",
         3},
        {"trace2: RAID5 degr[N=5] - RAID5 ok[N=5] < RAID5 degr[N=10] - RAID5 "
         "ok[N=10] and ParStrip degr[N=5] - ParStrip ok[N=5] < ParStrip "
         "degr[N=10] - ParStrip ok[N=10] -- trace 2 stops at N=10 (next claim)",
         3},
        {"trace2: [N=20] <= [N=10] <= [N=20] @ Mirror ok, Mirror degr, Mirror "
         "rebld, RAID5 ok, RAID5 degr, RAID5 rebld, ParStrip ok, ParStrip "
         "degr, ParStrip rebld -- trace 2 has 10 data disks, so its N=20 "
         "column runs the N=10 array",
         3},
        {"trace1: 1.05 * RAID5 ok < RAID5 degr @ N=20 -- a degraded read "
         "reads all N survivors",
         3},
        {"trace2: 2 * RAID5 ok < RAID5 degr @ N=10", 3},
        {"RAID5 ok < RAID5 degr and ParStrip ok < ParStrip degr", 3},
        {"Mirror degr <= 1.05 * Mirror ok -- the twin serves a failed disk's "
         "reads",
         3},
        {"trace2: RAID5 ok < RAID5 rebld < RAID5 degr and ParStrip ok < "
         "ParStrip rebld < ParStrip degr @ N=5, N=10 -- the rebuild restores "
         "service as it sweeps",
         3}}},

      {"fail_slow", "Extension: fail-slow disks and tail-tolerance policies",
       "mirrors can redirect reads to the faster copy and RAID5 can "
       "reconstruct around a straggler, so redundancy buys tail latency, "
       "not just availability",
       0.05, 0.5,
       [](const BenchOptions& options) {
         static const std::vector<Organization> orgs{
             Organization::kMirror, Organization::kRaid5,
             Organization::kParityStriping};
         static const std::vector<double> severities{1.0, 3.0, 6.0, 10.0};
         const auto xs = labels(severities, [](double factor) {
           return factor == 1.0 ? std::string("none")
                                : TablePrinter::num(factor, 0) + "x sticky";
         });
         std::vector<Table> tables;
         for (const auto& trace : kTraces)
           for (auto org : orgs)
             tables.push_back(
                 {.xs = xs,
                  .series = {"off", "on"},
                  .point = [options, trace, org](std::size_t s,
                                                 std::size_t x) {
                    Point p;
                    p.run = [options, trace, org, s,
                             x](const PointTrace& traced) {
                      return run_sticky_slow(org, severities[x], s == 1,
                                             trace, options, traced);
                    };
                    return p;
                  },
                  .print = [trace, org, xs](const Cells& cells,
                                            Report& report) {
                    print_tail_table(trace, org, xs, cells, report);
                  }});
         tables.back().footer = [](const Cells&) {
           std::cout << "One disk of array 0 is sticky-slow at the stated "
                        "factor; the policies are deadline=120ms + hedge at "
                        "3x the primary's EWMA, with mirror redirect-on-slow "
                        "and parity reconstruct-on-slow.\n";
         };
         return tables;
       },
       {{"p99 off[none] < p99 off[10x sticky] -- a slow disk costs tail "
         "latency",
         3},
        {"trace2 / RAID5: p99 on < p99 off @ 3x sticky, 6x sticky, 10x sticky",
         3},
        {"trace1 / ParStrip: p99 on < p99 off @ 10x sticky", 3},
        {"trace2 / ParStrip: p99 off < p99 on @ 3x sticky, 6x sticky, 10x "
         "sticky -- reconstructing around the straggler loads its survivors",
         3},
        {"trace1 / Mirror, trace1 / RAID5, trace1 / ParStrip: p50 on <= 1.05 * "
         "p50 off -- the policies leave trace 1's median alone",
         3},
        {"trace1 / ParStrip: p99 on < p99 off @ 6x sticky", 2},
        {"trace2 / Mirror: p99 on < p99 off @ 6x sticky, 10x sticky", 2},
        {"trace1 / Mirror, trace1 / RAID5: p99 on < p99 off @ 10x sticky", 2},
        {"p99 on < p99 off @ 3x sticky", 0},
        {"p99 on < p99 off @ 6x sticky", 0},
        {"p99 on < p99 off @ 10x sticky", 0},
        {"p50 on <= 1.05 * p50 off", 0}}},
  };
  return all;
}

// ---- the runner -------------------------------------------------------

/// Prints `row`'s tables and its claims' verdicts; false when an asserted
/// claim fails.
bool run_row(const Row& row, const BenchOptions& options) {
  const std::vector<Table> tables = row.tables(options);
  Sweep sweep(options);
  std::vector<std::vector<std::vector<std::size_t>>> queued;
  for (const auto& t : tables) {
    auto& idx = queued.emplace_back(t.series.size());
    for (std::size_t s = 0; s < t.series.size(); ++s)
      for (std::size_t x = 0; x < t.xs.size(); ++x) {
        Point p = t.point(s, x);
        idx[s].push_back(
            p.run ? sweep.add(t.series[s] + " " + t.xs[x], std::move(p.run))
                  : sweep.add(p.config, t.trace, p.speed));
      }
  }

  banner(row.title, row.paper, options);
  Report report;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const Table& t = tables[i];
    Cells cells(t.series.size());
    for (std::size_t s = 0; s < t.series.size(); ++s)
      for (std::size_t j : queued[i][s]) cells[s].push_back(&sweep.result(j));
    if (t.print) {
      t.print(cells, report);
    } else {
      std::vector<Series> series;
      for (std::size_t s = 0; s < t.series.size(); ++s) {
        series.push_back({t.series[s], {}});
        for (const Metrics* m : cells[s])
          series.back().values.push_back(t.value(s, *m));
      }
      print_table(report, t.x_name, t.xs,
                  t.title.empty() ? t.trace : t.title, series, t.value_name);
    }
    if (t.footer) t.footer(cells);
  }
  std::cout.flush();

  bool ok = true;
  for (const Claim& claim : row.claims) {
    bool holds = false;
    std::string error;
    try {
      holds = report.holds(claim.text);
    } catch (const std::exception& e) {
      error = std::string(" (") + e.what() + ")";
    }
    const bool asserted = claim.held == 3;
    if (asserted && !holds) ok = false;
    std::cerr << "claim " << row.name << ": " << (holds ? "holds" : "FAILS")
              << error
              << (asserted ? "" : " [printed only: held on " +
                                      std::to_string(claim.held) +
                                      "/3 CI seeds]")
              << ": " << claim.text << "\n";
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Row*> selected;
  std::vector<char*> args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (i == 1 && argv[i][0] != '-') {
      for (const Row& row : rows())
        if (row.name == argv[i]) selected.push_back(&row);
      if (selected.empty()) {
        std::cerr << argv[0] << ": unknown row '" << argv[i] << "'; rows:";
        for (const Row& row : rows()) std::cerr << ' ' << row.name;
        std::cerr << "\n";
        return 2;
      }
    } else {
      args.push_back(argv[i]);
    }
  }
  if (selected.empty())
    for (const Row& row : rows()) selected.push_back(&row);

  std::vector<BenchOptions> options;
  for (const Row* row : selected) {
    BenchOptions defaults;
    defaults.scale1 = row->scale1;
    defaults.scale2 = row->scale2;
    options.push_back(parse_or_exit(static_cast<int>(args.size()),
                                    args.data(), defaults));
  }
  bool ok = true;
  try {
    for (std::size_t i = 0; i < selected.size(); ++i)
      ok = run_row(*selected[i], options[i]) && ok;
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    return 1;
  }
  return ok ? 0 : 1;
}
