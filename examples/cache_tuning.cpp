// Explore the controller-cache design space for one organization: cache
// size x destage period, reporting response time, hit ratios, and
// destage behaviour. Demonstrates programmatic sweeps over
// SimulationConfig.
//
// Usage: cache_tuning [trace1|trace2] [org] [scale]
//   org: any organization name (base, mirror, raid5, raid4, parstrip,
//   raid10), or raid4pc for RAID4 with parity caching
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace raidsim;

  const std::string trace_name = argc > 1 ? argv[1] : "trace2";
  const std::string org_arg = argc > 2 ? argv[2] : "raid5";
  // raid4pc is this example's alias for RAID4 with parity caching.
  const bool parity_caching = org_arg == "raid4pc";
  Organization org;
  try {
    org = parity_caching ? Organization::kRaid4
                         : parse_wire_name<Organization>(org_arg);
  } catch (const std::invalid_argument& e) {
    std::cerr << "cache_tuning: " << e.what() << " or raid4pc\n";
    return 2;
  }
  WorkloadOptions options;
  options.scale = 0.25;
  try {
    if (argc > 3)
      options.scale =
          parse_number<double>(argv[3], std::string("scale: ") + argv[3]);
    workload_profile(trace_name, options);  // an unknown trace or bad scale
  } catch (const std::invalid_argument& e) {
    std::cerr << "cache_tuning: " << e.what() << "\n";
    return 2;
  }

  std::cout << "Cache tuning for " << to_string(org) << " on " << trace_name
            << " (scale " << options.scale << ")\n\n";

  TablePrinter table({"cache", "destage period", "mean ms", "read hit %",
                      "write hit %", "destage writes", "stalls"});
  for (std::int64_t mb : {8, 16, 64}) {
    for (double period_ms : {100.0, 300.0, 1000.0}) {
      SimulationConfig config;
      config.organization = org;
      config.cached = true;
      config.parity_caching = parity_caching;
      config.cache_bytes = mb << 20;
      config.destage_period_ms = period_ms;
      auto trace = make_workload(trace_name, options);
      const Metrics m = run_simulation(config, *trace);
      table.add_row({std::to_string(mb) + "MB",
                     TablePrinter::num(period_ms, 0) + "ms",
                     TablePrinter::num(m.mean_response_ms()),
                     TablePrinter::num(100.0 * m.read_hit_ratio(), 1),
                     TablePrinter::num(100.0 * m.write_hit_ratio(), 1),
                     std::to_string(m.controller.destage_writes),
                     std::to_string(m.controller.write_stalls +
                                    m.cache.stalls)});
    }
  }
  table.print(std::cout);
  return 0;
}
