// Extension: fail-slow disks and tail-tolerance policies. The paper's
// failure model is fail-stop, but real arrays mostly degrade through
// disks that keep answering -- slowly. This bench places one sticky-slow
// disk in array 0 (service times multiplied by the severity factor) and
// compares host-visible tail latency (p50/p95/p99/p999) for Mirror /
// RAID5 / Parity Striping with the tail-tolerance policies off vs on:
//   Mirror          redirect-on-slow + hedged reads to the twin
//   RAID5/ParStrip  reconstruct-read around the straggler (hedged)
// The mean barely moves -- the straggler serves a 1/total_disks slice of
// the load -- which is exactly why the tail percentiles are the only
// lens that shows fail-slow damage.
#include <iostream>

#include "common.hpp"
#include "fault/slowdown_injector.hpp"

namespace {

using namespace raidsim;
using namespace raidsim::bench;

struct TailResult {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

TailResult run_point(Organization org, double sticky_factor, bool policies,
                     const std::string& trace, const BenchOptions& options) {
  SimulationConfig config;
  config.organization = org;
  config.array_data_disks = 10;
  config.cached = false;
  if (policies) {
    config.tail.enabled = true;
    config.tail.read_deadline_ms = 120.0;
    config.tail.hedge_ewma_factor = 3.0;
    config.tail.redirect_on_slow = true;
    config.tail.reconstruct_on_slow = true;
  }

  auto stream = make_workload(trace, options.workload_options(trace));
  Simulator sim(config, stream->geometry());

  std::vector<ArrayController*> arrays;
  for (int a = 0; a < sim.arrays(); ++a)
    arrays.push_back(&sim.mutable_controller(a));

  SlowdownConfig slow;
  slow.manual_sticky = true;  // hooks installed, straggler placed by hand
  slow.sticky_factor = sticky_factor;
  SlowdownInjector injector(sim.event_queue(), arrays, slow);
  if (sticky_factor > 1.0) {
    injector.arm();
    injector.force_sticky(/*array=*/0, /*disk=*/1);
  }

  const Metrics m = sim.run(*stream);
  return TailResult{m.response_all.p50(), m.response_all.p95(),
                    m.response_all.p99(), m.response_all.p999()};
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions defaults;
  defaults.scale1 = 0.05;
  defaults.scale2 = 0.5;
  const auto options = parse_or_exit(argc, argv, defaults);
  banner("Extension: fail-slow disks and tail-tolerance policies",
         "mirrors can redirect reads to the faster copy and RAID5 can "
         "reconstruct around a straggler, so redundancy buys tail latency, "
         "not just availability",
         options);
  std::cout << "seed: " << options.seed
            << " (0 = workload default; override with --seed=<n>)\n\n";

  const std::vector<Organization> orgs{Organization::kMirror,
                                       Organization::kRaid5,
                                       Organization::kParityStriping};
  const std::vector<double> severities{1.0, 3.0, 6.0, 10.0};

  for (const std::string trace : {"trace1", "trace2"}) {
    for (auto org : orgs) {
      TablePrinter table({"slowdown", "p50 off", "p50 on", "p95 off",
                          "p95 on", "p99 off", "p99 on", "p999 off",
                          "p999 on"});
      for (double severity : severities) {
        const TailResult off =
            run_point(org, severity, /*policies=*/false, trace, options);
        const TailResult on =
            run_point(org, severity, /*policies=*/true, trace, options);
        const std::string label =
            severity == 1.0 ? "none"
                            : TablePrinter::num(severity, 0) + "x sticky";
        table.add_row({label, TablePrinter::num(off.p50),
                       TablePrinter::num(on.p50), TablePrinter::num(off.p95),
                       TablePrinter::num(on.p95), TablePrinter::num(off.p99),
                       TablePrinter::num(on.p99), TablePrinter::num(off.p999),
                       TablePrinter::num(on.p999)});
      }
      std::cout << trace << " -- " << to_string(org)
                << " (response ms, policies off vs on)\n";
      table.print(std::cout);
      std::cout << "\n";
    }
  }
  std::cout
      << "One disk of array 0 is sticky-slow at the stated factor; the "
         "policies are deadline=120ms + hedge at 3x the primary's EWMA, "
         "with mirror redirect-on-slow and parity reconstruct-on-slow.\n";
  return 0;
}
