// Quickstart: simulate a RAID5 array under a small OLTP workload and
// print the headline metrics. This is the smallest end-to-end use of the
// raidsim public API:
//
//   1. pick a workload (one of the paper's trace profiles, scaled down),
//   2. describe the I/O subsystem with SimulationConfig,
//   3. run and inspect Metrics.
//
// Usage: quickstart [scale]   (default scale 0.1 of trace2)

#include <iostream>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace raidsim;

  WorkloadOptions options;
  options.scale =
      argc > 1 ? parse_number_arg<double>("quickstart", "scale", argv[1])
               : 0.1;

  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.array_data_disks = 10;  // N = 10, the paper's default
  config.striping_unit_blocks = 1;
  config.sync = SyncPolicy::kDiskFirst;
  config.cached = false;

  auto trace = make_workload("trace2", options);
  std::cout << "Simulating: " << config.describe() << " on trace2 (scale "
            << options.scale << ")\n";

  const Metrics metrics = run_simulation(config, *trace);

  TablePrinter table({"metric", "value"});
  table.add_row({"requests", std::to_string(metrics.requests)});
  table.add_row({"mean response (ms)",
                 TablePrinter::num(metrics.mean_response_ms())});
  table.add_row({"read response (ms)",
                 TablePrinter::num(metrics.response_read.mean())});
  table.add_row({"write response (ms)",
                 TablePrinter::num(metrics.response_write.mean())});
  table.add_row({"p95 response (ms)",
                 TablePrinter::num(metrics.response_all.p95())});
  table.add_row({"mean disk utilization",
                 TablePrinter::num(metrics.mean_disk_utilization(), 3)});
  table.add_row({"disk access CV",
                 TablePrinter::num(metrics.disk_access_cv(), 3)});
  table.add_row({"arrays", std::to_string(metrics.arrays)});
  table.add_row({"total disks", std::to_string(metrics.total_disks)});
  table.add_row({"events executed", std::to_string(metrics.events_executed)});
  table.print(std::cout);
  return 0;
}
