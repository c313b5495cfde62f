// Extension: degraded-mode and rebuild performance. The paper motivates
// redundancy by media recovery and remarks (Section 4.2.1) that "large
// arrays are less reliable and have worse performance during
// reconstruction following a disk failure". This bench quantifies that:
// response time with all disks healthy, with one failed disk (degraded
// service), and while an online rebuild sweeps the failed disk, for
// Mirror / RAID5 / Parity Striping across array sizes.
#include "array/rebuild.hpp"
#include "common.hpp"

namespace {

using namespace raidsim;
using namespace raidsim::bench;

enum class Mode { kHealthy, kDegraded, kRebuilding };

double run_mode(Organization org, int n, Mode mode, const std::string& trace,
                const BenchOptions& options) {
  SimulationConfig config;
  config.organization = org;
  config.array_data_disks = n;
  config.cached = false;
  auto stream = make_workload(trace, options.workload_options(trace));

  Simulator sim(config, stream->geometry());
  std::unique_ptr<RebuildProcess> rebuild;
  if (mode != Mode::kHealthy) {
    // Fail the first disk of array 0 (the hot array does not matter for
    // the shape; every array sees statistically similar load).
    sim.mutable_controller(0).fail_disk(0);
  }
  if (mode == Mode::kRebuilding) {
    RebuildProcess::Options ro;
    ro.blocks_per_pass = 18;          // three tracks per pass
    ro.inter_pass_gap_ms = 2.0;       // mildly throttled sweep
    rebuild = std::make_unique<RebuildProcess>(sim.event_queue(),
                                               sim.mutable_controller(0), ro);
    rebuild->start(nullptr);
  }
  const Metrics m = sim.run(*stream);
  return m.mean_response_ms();
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions defaults;
  defaults.scale1 = 0.05;
  defaults.scale2 = 0.5;
  const auto options = parse_or_exit(argc, argv, defaults);
  banner("Extension: degraded-mode and rebuild performance",
         "degraded reads fan out to all N survivors, so larger arrays pay "
         "more per reconstruction and rebuild interferes longer",
         options);
  std::cout << "seed: " << options.seed
            << " (0 = workload default; override with --seed=<n>)\n\n";

  const std::vector<int> sizes{5, 10, 20};
  const std::vector<Organization> orgs{Organization::kMirror,
                                       Organization::kRaid5,
                                       Organization::kParityStriping};
  for (const std::string trace : {"trace1", "trace2"}) {
    std::vector<Series> series;
    for (auto org : orgs) {
      Series healthy{to_string(org) + " ok", {}};
      Series degraded{to_string(org) + " degr", {}};
      Series rebuilding{to_string(org) + " rebld", {}};
      for (int n : sizes) {
        healthy.values.push_back(
            run_mode(org, n, Mode::kHealthy, trace, options));
        degraded.values.push_back(
            run_mode(org, n, Mode::kDegraded, trace, options));
        rebuilding.values.push_back(
            run_mode(org, n, Mode::kRebuilding, trace, options));
      }
      series.push_back(std::move(healthy));
      series.push_back(std::move(degraded));
      series.push_back(std::move(rebuilding));
    }
    std::vector<std::string> xs;
    for (int n : sizes) xs.push_back("N=" + std::to_string(n));
    print_series_table("array size", xs, trace, series);
  }
  return 0;
}
