// Compare every disk array organization on one workload, cached and
// uncached, in a single table -- the "which organization should I pick"
// view of the library. All configurations run as one SweepRunner batch,
// so the table fills in parallel yet prints identically at any thread
// count.
//
// Usage: organization_shootout [trace1|trace2] [scale] [N] [threads]
//            [--trace-out=<prefix>] [--sample-interval-ms=<t>]
//
// With --trace-out, every configuration additionally records its request
// lifecycle and writes `<prefix>_<i>.trace.json` (Chrome trace-event
// format, load in Perfetto) plus, with --sample-interval-ms,
// `<prefix>_<i>.timeseries.csv`.
#include <iostream>
#include <string>
#include <vector>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "runner/sweep_runner.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace raidsim;

  std::string trace_out;
  double sample_interval_ms = 0.0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg.rfind("--sample-interval-ms=", 0) == 0) {
      sample_interval_ms = parse_number_arg<double>(
          "organization_shootout", "--sample-interval-ms", arg.c_str() + 21);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: organization_shootout [trace1|trace2] [scale] [N] "
                   "[threads] [--trace-out=<prefix>] "
                   "[--sample-interval-ms=<t>]\n";
      return 0;
    } else {
      positional.push_back(arg);
    }
  }

  const std::string trace_name =
      positional.size() > 0 ? positional[0] : "trace2";
  WorkloadOptions options;
  // The positional number at `index` parsed whole, or `fallback`.
  auto number = [&]<class T>(std::size_t index, const char* name,
                             T fallback) {
    return positional.size() > index
               ? parse_number_arg<T>("organization_shootout", name,
                                     positional[index].c_str())
               : fallback;
  };
  options.scale = number(1, "scale", 0.25);
  const int n = number(2, "N", 10);
  const int threads = number(3, "threads", 0);

  std::cout << "Organization shootout on " << trace_name << " (scale "
            << options.scale << ", N=" << n << ")\n\n";

  SweepRunner runner(threads);
  auto queue_one = [&](Organization org, bool cached, bool parity_caching) {
    SimulationConfig config;
    config.organization = org;
    config.array_data_disks = n;
    config.cached = cached;
    config.parity_caching = parity_caching;
    SweepJob job;
    job.config = config;
    job.trace = trace_name;
    job.workload = options;
    job.label = to_string(org) + (parity_caching ? "+pc" : "") +
                (cached ? "|16MB" : "|-");
    if (!trace_out.empty()) {
      job.trace_out = trace_out + "_" + std::to_string(runner.queued());
      job.sample_interval_ms = sample_interval_ms;
    }
    runner.submit(std::move(job));
  };

  for (auto org : {Organization::kBase, Organization::kMirror,
                   Organization::kRaid10, Organization::kRaid5,
                   Organization::kParityStriping})
    queue_one(org, false, false);
  for (auto org : {Organization::kBase, Organization::kMirror,
                   Organization::kRaid10, Organization::kRaid5,
                   Organization::kParityStriping})
    queue_one(org, true, false);
  queue_one(Organization::kRaid4, true, true);

  TablePrinter table({"organization", "cache", "disks", "mean ms", "read ms",
                      "write ms", "p95 ms", "util"});
  for (const auto& result : runner.run_all()) {
    const Metrics& m = result.metrics;
    const auto split = result.label.find('|');
    table.add_row({result.label.substr(0, split),
                   result.label.substr(split + 1), std::to_string(m.total_disks),
                   TablePrinter::num(m.mean_response_ms()),
                   TablePrinter::num(m.response_read.mean()),
                   TablePrinter::num(m.response_write.mean()),
                   TablePrinter::num(m.response_all.p95()),
                   TablePrinter::num(m.mean_disk_utilization(), 3)});
  }

  table.print(std::cout);
  std::cout << "\nEqual-capacity comparison: Mirror uses 2N disks, parity "
               "organizations N+1 per array.\n";
  if (!trace_out.empty())
    std::cout << "[trace artifacts written to " << trace_out
              << "_<i>.trace.json]\n";
  return 0;
}
