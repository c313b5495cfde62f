// Extension: closed-loop load scaling. Section 4.2.4 cautions that
// speeding up a trace "does not reflect the characteristics of any real
// system... transactions may have to wait for one I/O to finish before
// issuing another one". This bench scales load the realistic way -- by
// multiprogramming level -- and shows throughput/response curves per
// organization, including the RAID10 extension.
#include "common.hpp"
#include "core/closed_loop.hpp"

int main(int argc, char** argv) {
  using namespace raidsim;
  using namespace raidsim::bench;
  const auto options = parse_or_exit(argc, argv);
  banner("Extension: closed-loop load scaling (MPL sweep)",
         "load scaled by multiprogramming level instead of trace speedup; "
         "RAID5's balancing shows as higher sustained throughput",
         options);

  const std::vector<int> mpls{1, 4, 16, 64};
  const std::vector<Organization> orgs{
      Organization::kBase, Organization::kMirror, Organization::kRaid5,
      Organization::kRaid10, Organization::kParityStriping};

  for (const char* metric : {"response", "throughput"}) {
    std::vector<Series> series;
    for (auto org : orgs) {
      Series s{to_string(org), {}};
      for (int mpl : mpls) {
        SimulationConfig config;
        config.organization = org;
        ClosedLoopOptions loop;
        loop.clients = mpl;
        loop.think_time_ms = 20.0;
        loop.requests = static_cast<std::uint64_t>(8000 * options.scale2);
        if (loop.requests < 200) loop.requests = 200;
        loop.seed = options.seed;
        const auto result = run_closed_loop(config, loop);
        s.values.push_back(metric == std::string("response")
                               ? result.mean_response_ms()
                               : result.throughput_io_per_s);
      }
      series.push_back(std::move(s));
    }
    std::vector<std::string> xs;
    for (int mpl : mpls) xs.push_back("MPL=" + std::to_string(mpl));
    print_series_table("clients", xs, "trace2 profile", series,
                       metric == std::string("response") ? "response (ms)"
                                                         : "IO/s");
  }
  return 0;
}
