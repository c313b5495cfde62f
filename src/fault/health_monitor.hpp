#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "array/rebuild.hpp"

namespace raidsim {

/// Recovery orchestrator closing the failure loop: reacts to whole-disk
/// failures (reported by the FaultInjector or by the controllers'
/// transient-retry-exhaustion path) by allocating a hot spare and
/// launching an automatic RebuildProcess, serialises concurrent repairs
/// within an array, and records -- instead of crashing on -- the
/// double-failure data-loss case the paper's MTTDL formulas quantify
/// (Section 1, Section 4.2.1).
///
/// Degradation semantics per organization:
///   Base            every failure loses that disk's data.
///   Mirror/RAID10   loss only when a disk and its twin are down at once.
///   RAID4/5, PS     loss when any two disks of the array are down at once.
/// After a recorded loss the array is left degraded (no further recovery
/// is orchestrated for it); the simulation continues gracefully.
class HealthMonitor {
 public:
  struct Options {
    /// Hot spares in the shared pool across all monitored arrays. A
    /// failure with no spare available waits (degraded) until
    /// add_spares() replenishes the pool.
    int hot_spares = 1;
    /// Delay between allocating a spare and the rebuild starting
    /// (spindle-up / slot-swap time).
    double spare_swap_ms = 0.0;
    RebuildProcess::Options rebuild;
  };

  enum class EventKind {
    kDiskFailure,
    kDataLoss,
    kSpareAllocated,
    kSpareExhausted,
    kRebuildStarted,
    kRebuildCompleted,
  };
  struct Event {
    SimTime time = 0.0;
    EventKind kind = EventKind::kDiskFailure;
    int array = -1;
    int disk = -1;
  };
  /// Recorded when redundancy is exhausted: which disks were down and
  /// how many physical blocks of content became unreconstructable.
  struct DataLossEvent {
    SimTime time = 0.0;
    int array = -1;
    std::vector<int> failed_disks;
    std::int64_t lost_blocks = 0;
  };

  HealthMonitor(EventQueue& eq, std::vector<ArrayController*> arrays,
                Options options);
  HealthMonitor(EventQueue& eq, ArrayController& array, Options options)
      : HealthMonitor(eq, std::vector<ArrayController*>{&array},
                      std::move(options)) {}

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Report a whole-disk failure. Idempotent while the failure is
  /// outstanding. Classifies data loss, marks the controller degraded,
  /// and starts spare allocation + rebuild when redundancy survives.
  void on_disk_failure(int array, int disk);

  /// Replenish the spare pool; immediately resumes any recovery that
  /// was waiting on a spare.
  void add_spares(int count);

  bool data_loss() const { return !losses_.empty(); }
  const std::vector<DataLossEvent>& losses() const { return losses_; }
  const std::vector<Event>& events() const { return events_; }
  int spares_available() const { return spares_; }
  int rebuilds_completed() const { return rebuilds_completed_; }
  bool rebuild_active(int array) const;
  /// Disks currently failed (unrecovered), in failure order.
  const std::vector<int>& failed_disks(int array) const;
  bool array_lost(int array) const;

  /// Fires when a disk returns to service after a completed rebuild
  /// (the FaultInjector uses this to re-arm the disk's failure clock).
  std::function<void(int array, int disk, SimTime)> on_disk_recovered;

 private:
  struct ArrayState {
    ArrayController* controller = nullptr;
    std::vector<int> failed;
    std::unique_ptr<RebuildProcess> rebuild;
    int rebuilding = -1;
    bool lost = false;
    bool spare_wait_logged = false;
  };

  bool causes_data_loss(const ArrayState& state, int disk) const;
  void try_recover(int array);
  void start_rebuild(int array, int disk);
  void log(EventKind kind, int array, int disk);

  EventQueue& eq_;
  Options options_;
  int spares_;
  std::vector<ArrayState> arrays_;
  std::vector<Event> events_;
  std::vector<DataLossEvent> losses_;
  int rebuilds_completed_ = 0;
};

}  // namespace raidsim
