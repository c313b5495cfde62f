#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"

namespace raidsim {

/// Span/event taxonomy of the request-lifecycle tracer. Phases mirror the
/// paper's decomposition of an update into its component accesses
/// (Section 3.3): a small write spends its time in read-old-data /
/// read-old-parity / write-data / write-parity, a cached write in the
/// cache plus an asynchronous destage, a rebuild in reconstruct I/O.
enum class ObsPhase : std::uint8_t {
  // Host-visible request spans (one per submitted request, array track).
  kHostRead = 0,
  kHostWrite,
  // Disk-op spans (disk tracks). kDiskQueue covers enqueue -> service
  // start; the phase spans cover service start -> completion. An RMW op
  // emits its read phase and then its write phase under the same span id.
  kDiskQueue,
  kReadData,
  kReadOldData,
  kReadOldParity,
  kWriteData,
  kWriteParity,
  kMirrorCopy,
  // Controller-level background spans (array track).
  kDestage,
  kRebuild,
  kRecovery,
  // Instant events.
  kCacheHit,
  kCacheMiss,
  kWriteStall,
  kDestageTick,
  // Tail-tolerance instants (fail-slow policies, array track).
  kTimeoutFired,
  kHedgeIssued,
  kHedgeWon,
  kRedirected,
  // What-if service job lifecycle (src/svc). These spans live on the
  // service supervisor's wall-clock tracer, not a simulation tracer:
  // kJobQueue covers admission -> worker pickup, kJobRun covers the
  // simulation run.
  kJobQueue,
  kJobRun,
  // Service instants: admission-control rejection, a deadline/watchdog
  // cancellation.
  kJobRejected,
  kJobDeadline,
  kJobWatchdog,
  // Sentinel: "derive from the op kind" default for DiskRequest tagging.
  kAuto,
};

const char* to_string(ObsPhase phase);

/// The write phase an RMW op transitions into once its read pass is done.
constexpr ObsPhase rmw_write_phase(ObsPhase read_phase) {
  return read_phase == ObsPhase::kReadOldParity ? ObsPhase::kWriteParity
                                                : ObsPhase::kWriteData;
}

enum class ObsType : std::uint8_t { kBegin, kEnd, kInstant };

/// One tracer record. 24 bytes; appended in simulation-time order (the
/// event queue's clock is monotonic), so the buffer needs no sorting.
struct TraceEvent {
  SimTime ts = 0.0;        // ms of simulation time
  std::uint64_t id = 0;    // span id; a begin and its end share it
  std::int32_t array = -1; // owning array, -1 = simulator-wide
  std::int16_t track = -1; // disk index within the array, -1 = array track
  ObsPhase phase = ObsPhase::kAuto;
  ObsType type = ObsType::kInstant;
};

}  // namespace raidsim
