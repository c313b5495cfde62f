// Scripted failure drill: walk one array through the full automatic
// recovery pipeline -- healthy service, an injected whole-disk failure
// with no spare on hand (degraded service), a hot spare arriving
// (HealthMonitor launches the rebuild), online reconstruction under
// foreground load, and full recovery -- printing the response-time
// delta of each phase and the monitor's event log. Ends with a scrub
// epilogue: a planted latent sector error found and repaired by the
// patrol read.
//
// Usage: failure_drill [org] [N]
//   org: default raid5; not base (no redundancy to recover with) nor
//   raid4 (modelled only with a cache)
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/closed_loop.hpp"
#include "core/reliability.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "fault/health_monitor.hpp"
#include "fault/mttdl_sim.hpp"
#include "fault/scrub.hpp"
#include "trace/synthetic.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

namespace {

using namespace raidsim;

std::string to_string(HealthMonitor::EventKind kind) {
  switch (kind) {
    case HealthMonitor::EventKind::kDiskFailure: return "disk failure";
    case HealthMonitor::EventKind::kDataLoss: return "DATA LOSS";
    case HealthMonitor::EventKind::kSpareAllocated: return "spare allocated";
    case HealthMonitor::EventKind::kSpareExhausted: return "spare pool empty";
    case HealthMonitor::EventKind::kRebuildStarted: return "rebuild started";
    case HealthMonitor::EventKind::kRebuildCompleted:
      return "rebuild completed";
  }
  return "?";
}

struct StageResult {
  double mean_ms;
  std::uint64_t degraded_reads;
  std::uint64_t degraded_writes;
};

/// Per-stage driver state. Held by shared_ptr because think-time events
/// scheduled near the end of a stage can fire after drive() returns;
/// they must find valid (and deactivated) state, not a dead stack frame.
struct DriveState {
  Simulator* sim = nullptr;
  SyntheticTrace* addresses = nullptr;
  Rng* rng = nullptr;
  int requests = 0;
  int issued = 0;
  int done = 0;
  double sum = 0.0;
  bool active = true;
};

void issue_next(const std::shared_ptr<DriveState>& state) {
  if (!state->active || state->issued >= state->requests) return;
  auto rec = state->addresses->next();
  if (!rec) return;
  ++state->issued;
  rec->delta_ms = 0.0;
  auto& eq = state->sim->event_queue();
  const double start = eq.now();
  state->sim->submit(*rec, [state, start](SimTime t) {
    state->sum += t - start;
    ++state->done;
    if (state->issued < state->requests) {
      state->sim->event_queue().schedule_in(
          state->rng->exponential(10.0), [state] { issue_next(state); });
    }
  });
}

/// Drive `requests` closed-loop I/Os against an existing simulator and
/// report the stage's mean response.
StageResult drive(Simulator& sim, SyntheticTrace& addresses, Rng& rng,
                  int requests) {
  const std::uint64_t before_reads =
      sim.controller(0).stats().degraded_reads;
  const std::uint64_t before_writes =
      sim.controller(0).stats().degraded_writes;
  auto state = std::make_shared<DriveState>();
  state->sim = &sim;
  state->addresses = &addresses;
  state->rng = &rng;
  state->requests = requests;
  // Four clients, 10 ms think time.
  for (int c = 0; c < 4; ++c) issue_next(state);
  auto& eq = sim.event_queue();
  while (state->done < requests && eq.step()) {
  }
  state->active = false;  // disarm stragglers from this stage
  return {state->sum / state->done,
          sim.controller(0).stats().degraded_reads - before_reads,
          sim.controller(0).stats().degraded_writes - before_writes};
}

}  // namespace

int main(int argc, char** argv) {
  const int n =
      argc > 2 ? parse_number_arg<int>("failure_drill", "N", argv[2]) : 10;
  const int kStageRequests = 4000;

  SimulationConfig config;
  config.array_data_disks = n;
  try {
    config.organization =
        parse_wire_name<Organization>(argc > 1 ? argv[1] : "raid5");
    config.validate();
  } catch (const std::invalid_argument& e) {
    std::cerr << "failure_drill: " << e.what() << "\n";
    return 2;
  }
  if (config.organization == Organization::kBase) {
    std::cerr << "failure_drill: base has no redundancy to recover with\n";
    return 2;
  }
  const Organization org = config.organization;

  TraceProfile profile = TraceProfile::trace2();
  profile.geometry.data_disks = n;  // one array
  profile.requests = 10 * kStageRequests;
  SyntheticTrace addresses(profile);
  Rng rng(2718);

  Simulator sim(config, profile.geometry);

  // Reliability context: the analytic MTTDL of this group, cross-checked
  // by a quick Monte-Carlo run (see `paper_claims mttdl_montecarlo` for
  // the full validation).
  MttdlConfig mttdl;
  mttdl.organization = org;
  mttdl.total_data_disks = n;
  mttdl.array_data_disks = n;
  const auto estimate = simulate_mttdl(mttdl, 400);
  const double hours_per_year = 24.0 * 365.0;
  // system_mttdl_hours, not group_mttdl_hours: a mirrored array of N
  // data disks is N independent pairs (groups), so the array-level
  // figure is the per-pair MTTDL divided by N. The Monte-Carlo estimate
  // simulates the whole array and must be compared at the same level.
  std::cout << "Failure drill: " << config.describe() << "\n"
            << "Analytic MTTDL of this array: "
            << TablePrinter::num(system_mttdl_hours(org, n, n) /
                                     hours_per_year,
                                 1)
            << " years (100,000 h disk MTTF, 24 h repair); Monte-Carlo "
            << "cross-check: "
            << TablePrinter::num(estimate.mean_hours / hours_per_year, 1)
            << " years (" << estimate.lifetimes << " lifetimes, ratio "
            << TablePrinter::num(estimate.ratio(), 2) << ")\n\n";

  // The monitor starts with an EMPTY spare pool: the injected failure
  // leaves the array degraded until the drill delivers a spare.
  HealthMonitor::Options monitor_options;
  monitor_options.hot_spares = 0;
  monitor_options.spare_swap_ms = 500.0;  // spindle-up after delivery
  monitor_options.rebuild.blocks_per_pass = 30;
  HealthMonitor monitor(sim.event_queue(), sim.mutable_controller(0),
                        monitor_options);

  TablePrinter table({"phase", "mean response (ms)", "vs healthy",
                      "degraded reads", "degraded writes"});
  double healthy_ms = 0.0;
  auto record = [&](const std::string& stage, const StageResult& r) {
    if (healthy_ms == 0.0) healthy_ms = r.mean_ms;
    table.add_row({stage, TablePrinter::num(r.mean_ms),
                   TablePrinter::num(r.mean_ms - healthy_ms, 2) + " ms",
                   std::to_string(r.degraded_reads),
                   std::to_string(r.degraded_writes)});
  };

  record("1. healthy", drive(sim, addresses, rng, kStageRequests));

  // Inject a whole-disk failure. With the spare pool empty the monitor
  // records the exhaustion and leaves the array degraded.
  monitor.on_disk_failure(0, 0);
  record("2. disk 0 failed, no spare (degraded)",
         drive(sim, addresses, rng, kStageRequests));

  // The replacement disk arrives: the monitor allocates it and starts
  // the rebuild on its own.
  monitor.add_spares(1);
  record("3. spare arrived, rebuilding (foreground continues)",
         drive(sim, addresses, rng, kStageRequests));

  // Let the rebuild finish quietly, then measure recovered service.
  while (monitor.rebuilds_completed() == 0 && sim.event_queue().step()) {
  }
  record("4. recovered", drive(sim, addresses, rng, kStageRequests));
  table.print(std::cout);

  std::cout << "\nMonitor event log:\n";
  TablePrinter events({"time (s)", "event", "disk"});
  for (const auto& e : monitor.events())
    events.add_row({TablePrinter::num(e.time / 1000.0, 2), to_string(e.kind),
                    e.disk >= 0 ? std::to_string(e.disk) : "-"});
  events.print(std::cout);

  // Epilogue: a latent sector error on a surviving disk, found and
  // repaired in place by one background scrub sweep.
  auto& controller = sim.mutable_controller(0);
  const auto extent = controller.layout().map_read(42, 1)[0];
  controller.disks()[static_cast<std::size_t>(extent.disk)]
      ->plant_media_error(extent.start_block);
  ScrubProcess scrub(sim.event_queue(), controller);
  scrub.start();
  while (scrub.running() && sim.event_queue().step()) {
  }
  std::cout << "\nScrub epilogue: planted 1 latent sector error on disk "
            << extent.disk << "; sweep found " << scrub.stats().errors_found
            << ", repaired " << controller.stats().media_repairs
            << " (reconstruct-and-rewrite), "
            << scrub.stats().blocks_scrubbed << " blocks patrolled.\n";

  sim.drain_and_finalize();
  return 0;
}
