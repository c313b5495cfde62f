#include "fault/health_monitor.hpp"

#include <algorithm>
#include <stdexcept>

namespace raidsim {

HealthMonitor::HealthMonitor(EventQueue& eq,
                             std::vector<ArrayController*> arrays,
                             Options options)
    : eq_(eq), options_(std::move(options)), spares_(options_.hot_spares) {
  if (arrays.empty())
    throw std::invalid_argument("HealthMonitor: no arrays to monitor");
  if (options_.hot_spares < 0 || options_.spare_swap_ms < 0.0)
    throw std::invalid_argument("HealthMonitor: negative options");
  arrays_.reserve(arrays.size());
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    if (arrays[a] == nullptr)
      throw std::invalid_argument("HealthMonitor: null controller");
    ArrayState state;
    state.controller = arrays[a];
    arrays_.push_back(std::move(state));
    // Wire the controllers' retry-exhaustion path into this monitor so
    // a disk dying under a transient storm follows the same recovery
    // orchestration as an injected whole-disk failure.
    const int index = static_cast<int>(a);
    arrays[a]->set_disk_dead_handler(
        [this, index](int disk, SimTime) { on_disk_failure(index, disk); });
  }
}

void HealthMonitor::log(EventKind kind, int array, int disk) {
  events_.push_back(Event{eq_.now(), kind, array, disk});
}

bool HealthMonitor::rebuild_active(int array) const {
  const auto& s = arrays_.at(static_cast<std::size_t>(array));
  return s.rebuild != nullptr && s.rebuild->running();
}

const std::vector<int>& HealthMonitor::failed_disks(int array) const {
  return arrays_.at(static_cast<std::size_t>(array)).failed;
}

bool HealthMonitor::array_lost(int array) const {
  return arrays_.at(static_cast<std::size_t>(array)).lost;
}

bool HealthMonitor::causes_data_loss(const ArrayState& state, int disk) const {
  const Layout& layout = state.controller->layout();
  switch (layout.organization()) {
    case Organization::kBase:
      return true;  // no redundancy: every failure loses data
    case Organization::kMirror:
    case Organization::kRaid10: {
      const int twin = layout.mirror_of(disk);
      return std::find(state.failed.begin(), state.failed.end(), twin) !=
             state.failed.end();
    }
    case Organization::kRaid4:
    case Organization::kRaid5:
    case Organization::kParityStriping:
      // Single parity: any second concurrent failure in the array.
      return !state.failed.empty();
  }
  return true;
}

void HealthMonitor::on_disk_failure(int array, int disk) {
  auto& s = arrays_.at(static_cast<std::size_t>(array));
  if (disk < 0 || disk >= s.controller->layout().total_disks())
    throw std::invalid_argument("HealthMonitor: no such disk");
  if (std::find(s.failed.begin(), s.failed.end(), disk) != s.failed.end())
    return;  // already known and unrecovered

  log(EventKind::kDiskFailure, array, disk);
  const bool loss = causes_data_loss(s, disk);
  s.failed.push_back(disk);

  if (loss) {
    // Graceful degradation: record what was lost and when; the
    // simulation keeps running (no crash, no silent success).
    s.lost = true;
    DataLossEvent event;
    event.time = eq_.now();
    event.array = array;
    event.failed_disks = s.failed;
    event.lost_blocks = s.controller->layout().physical_blocks_used();
    losses_.push_back(std::move(event));
    log(EventKind::kDataLoss, array, disk);
    return;
  }

  // Mark the controller degraded (it models a single failure; a
  // concurrent failure in another mirrored pair waits its turn).
  if (s.controller->failed_disk() < 0) s.controller->fail_disk(disk);
  try_recover(array);
}

void HealthMonitor::add_spares(int count) {
  if (count < 0) throw std::invalid_argument("HealthMonitor: negative spares");
  spares_ += count;
  for (std::size_t a = 0; a < arrays_.size(); ++a)
    try_recover(static_cast<int>(a));
}

void HealthMonitor::try_recover(int array) {
  auto& s = arrays_[static_cast<std::size_t>(array)];
  if (s.lost || s.failed.empty() || rebuild_active(array)) return;
  const int disk = s.failed.front();
  if (s.controller->failed_disk() < 0) s.controller->fail_disk(disk);
  if (s.controller->failed_disk() != disk) return;  // another repair owns it
  if (spares_ == 0) {
    if (!s.spare_wait_logged) {
      log(EventKind::kSpareExhausted, array, disk);
      s.spare_wait_logged = true;
    }
    return;
  }
  --spares_;
  s.spare_wait_logged = false;
  log(EventKind::kSpareAllocated, array, disk);
  if (options_.spare_swap_ms > 0.0) {
    eq_.schedule_in(options_.spare_swap_ms,
                    [this, array, disk] { start_rebuild(array, disk); });
  } else {
    start_rebuild(array, disk);
  }
}

void HealthMonitor::start_rebuild(int array, int disk) {
  auto& s = arrays_[static_cast<std::size_t>(array)];
  // The array may have lost data while the spare was spinning up; the
  // spare goes back to the pool.
  if (s.lost || s.controller->failed_disk() != disk) {
    ++spares_;
    return;
  }
  // Assigning the new process destroys any previous (finished) one --
  // never inside its own completion callback (which defers via the
  // event queue).
  s.rebuild = std::make_unique<RebuildProcess>(eq_, *s.controller,
                                               options_.rebuild);
  s.rebuilding = disk;
  log(EventKind::kRebuildStarted, array, disk);
  s.rebuild->start([this, array, disk](SimTime t) {
    auto& state = arrays_[static_cast<std::size_t>(array)];
    ++rebuilds_completed_;
    log(EventKind::kRebuildCompleted, array, disk);
    state.failed.erase(
        std::remove(state.failed.begin(), state.failed.end(), disk),
        state.failed.end());
    state.rebuilding = -1;
    if (on_disk_recovered) on_disk_recovered(array, disk, t);
    // Defer the next repair to after this callback unwinds so the
    // finished RebuildProcess is never destroyed mid-callback.
    eq_.schedule_in(0.0, [this, array] { try_recover(array); });
  });
}

}  // namespace raidsim
