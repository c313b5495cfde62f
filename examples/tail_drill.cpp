// Self-checking tail-tolerance drill. Replays the same workload three
// times per organization against a RAID5 and a mirrored array:
//   A  injection off, policies off   the fail-slow machinery must be
//                                    completely dark (zero hedges,
//                                    timeouts, redirects)
//   B  one sticky-slow disk, policies off   the damaged tail
//   C  one sticky-slow disk, policies on    hedged + redirected reads
// and asserts that the tail policies strictly reduce read p99 under the
// sticky-slow disk (C < B) while actually firing (hedges > 0). Exits
// nonzero on any violated invariant, so CI can run it as a smoke test.
//
// Usage: tail_drill [sticky_factor] [scale]
#include <iostream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "fault/slowdown_injector.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

namespace {

using namespace raidsim;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "  [ok] " : "  [FAIL] ") << what << "\n";
  if (!ok) ++g_failures;
}

struct RunResult {
  double read_p50 = 0.0;
  double read_p99 = 0.0;
  double read_p999 = 0.0;
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t redirects = 0;
  std::uint64_t slow_ops = 0;
};

RunResult run_once(Organization org, bool inject, bool policies,
                   double sticky_factor, double scale) {
  SimulationConfig config;
  config.organization = org;
  config.array_data_disks = 10;
  config.cached = false;
  config.tail = policies;

  WorkloadOptions wo;
  wo.scale = scale;
  auto stream = make_workload("trace2", wo);
  Simulator sim(config, stream->geometry());

  std::vector<ArrayController*> arrays;
  for (int a = 0; a < sim.arrays(); ++a)
    arrays.push_back(&sim.mutable_controller(a));

  SlowdownConfig slow;
  slow.manual_sticky = inject;
  slow.sticky_factor = sticky_factor;
  SlowdownInjector injector(sim.event_queue(), arrays, slow);
  if (inject) {
    injector.arm();
    injector.force_sticky(/*array=*/0, /*disk=*/1);
  }

  const Metrics m = sim.run(*stream);
  RunResult r;
  r.read_p50 = m.response_read.p50();
  r.read_p99 = m.response_read.p99();
  r.read_p999 = m.response_read.p999();
  r.hedges = m.controller.hedged_reads;
  r.hedge_wins = m.controller.hedge_wins;
  r.timeouts = m.controller.timeouts_fired;
  r.redirects = m.controller.redirected_reads;
  r.slow_ops = m.disk_totals.slow_ops;
  return r;
}

void drill(Organization org, double sticky_factor, double scale) {
  std::cout << "\n== " << to_string(org) << " ==\n";
  const RunResult a = run_once(org, false, false, sticky_factor, scale);
  const RunResult b = run_once(org, true, false, sticky_factor, scale);
  const RunResult c = run_once(org, true, true, sticky_factor, scale);

  TablePrinter table({"run", "read p50", "read p99", "read p999", "hedges",
                      "wins", "timeouts", "redirects", "slow ops"});
  auto row = [&](const std::string& name, const RunResult& r) {
    table.add_row({name, TablePrinter::num(r.read_p50),
                   TablePrinter::num(r.read_p99),
                   TablePrinter::num(r.read_p999), std::to_string(r.hedges),
                   std::to_string(r.hedge_wins), std::to_string(r.timeouts),
                   std::to_string(r.redirects), std::to_string(r.slow_ops)});
  };
  row("A off/off", a);
  row("B slow/off", b);
  row("C slow/on", c);
  table.print(std::cout);

  check(a.slow_ops == 0, "injection off: no slowed disk ops");
  check(a.hedges == 0 && a.timeouts == 0 && a.redirects == 0,
        "injection off: zero hedges, timeouts, redirects");
  check(b.slow_ops > 0, "injection on: the sticky disk slowed real ops");
  check(b.read_p99 > a.read_p99,
        "sticky-slow disk damages the unprotected read p99");
  check(c.hedges > 0, "policies on: hedged reads actually fired");
  check(c.read_p99 < b.read_p99,
        "policies strictly reduce read p99 under the sticky-slow disk");
  check(c.read_p999 < b.read_p999,
        "policies strictly reduce read p999 under the sticky-slow disk");
  if (org == Organization::kMirror)
    check(c.redirects > 0, "mirror: redirect-on-slow steered reads away");
}

}  // namespace

int main(int argc, char** argv) {
  const double sticky_factor =
      argc > 1
          ? parse_number_arg<double>("tail_drill", "sticky factor", argv[1])
          : 8.0;
  const double scale =
      argc > 2 ? parse_number_arg<double>("tail_drill", "scale", argv[2])
               : 0.3;
  std::cout << "Tail drill: sticky factor " << sticky_factor << ", scale "
            << scale << "\n";

  drill(Organization::kRaid5, sticky_factor, scale);
  drill(Organization::kMirror, sticky_factor, scale);

  if (g_failures) {
    std::cout << "\n" << g_failures << " check(s) FAILED\n";
    return 1;
  }
  std::cout << "\nall checks passed\n";
  return 0;
}
