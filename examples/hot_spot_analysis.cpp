// Visualise how each organization spreads a skewed workload over its
// arms: per-disk access counts and utilizations (the Figure 6/7 effect),
// plus the parity-disk load for RAID4. Demonstrates the per-disk metrics
// in the public API.
//
// Usage: hot_spot_analysis [trace1|trace2] [scale]
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "util/parse_number.hpp"

namespace {

void report(const std::string& name, const raidsim::Metrics& m) {
  std::printf("%s\n", name.c_str());
  std::printf("  mean response %.2f ms, access CV %.3f, util mean %.3f "
              "max %.3f\n",
              m.mean_response_ms(), m.disk_access_cv(),
              m.mean_disk_utilization(), m.max_disk_utilization());
  const auto max_count =
      *std::max_element(m.disk_accesses.begin(), m.disk_accesses.end());
  const std::size_t disks_to_show = std::min<std::size_t>(
      m.disk_accesses.size(), 22);
  for (std::size_t i = 0; i < disks_to_show; ++i) {
    const int bar =
        max_count ? static_cast<int>(36.0 *
                                     static_cast<double>(m.disk_accesses[i]) /
                                     static_cast<double>(max_count))
                  : 0;
    std::printf("  disk %2zu |%-36s| %8llu ops  util %.3f\n", i,
                std::string(static_cast<std::size_t>(bar), '=').c_str(),
                static_cast<unsigned long long>(m.disk_accesses[i]),
                m.disk_utilization[i]);
  }
  if (m.disk_accesses.size() > disks_to_show)
    std::printf("  ... (%zu more disks)\n",
                m.disk_accesses.size() - disks_to_show);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace raidsim;

  const std::string trace_name = argc > 1 ? argv[1] : "trace2";
  WorkloadOptions options;
  options.scale =
      argc > 2 ? parse_number_arg<double>("hot_spot_analysis", "scale", argv[2])
               : 0.25;

  std::printf("Hot-spot analysis on %s (scale %.2f)\n\n", trace_name.c_str(),
              options.scale);

  for (auto org : {Organization::kBase, Organization::kMirror,
                   Organization::kRaid5, Organization::kParityStriping}) {
    SimulationConfig config;
    config.organization = org;
    auto trace = make_workload(trace_name, options);
    report(to_string(org), run_simulation(config, *trace));
  }

  // RAID4 with parity caching: watch the dedicated parity disk (the last
  // one) absorb all parity traffic.
  SimulationConfig config;
  config.organization = Organization::kRaid4;
  config.cached = true;
  config.parity_caching = true;
  auto trace = make_workload(trace_name, options);
  report("RAID4 + parity caching (last disk is the parity disk)",
         run_simulation(config, *trace));
  return 0;
}
