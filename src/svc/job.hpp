#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "core/workloads.hpp"

namespace raidsim::svc {

/// Failure taxonomy of the what-if service. Every job submitted to the
/// daemon terminates in exactly one of these states and the client is
/// always told which -- there is no silent drop and no unbounded wait.
enum class JobStatus : std::uint8_t {
  kOk = 0,      // metrics produced (fresh run or cache hit)
  kInvalid,     // config/request rejected by validation, never queued
  kOverloaded,  // admission control shed the job (queue full)
  kDraining,    // server is draining; not admitting new work
  kFailed,      // the run threw
  kCancelled,   // stopped by the drain budget or the stuck-job guard
  kDeadline,    // per-job deadline expired (queued or mid-run)
};

const char* to_string(JobStatus status);

/// One what-if query: a full simulation point plus service policy knobs.
struct JobRequest {
  SimulationConfig config;
  std::string trace = "trace2";  // "trace1" or "trace2"
  WorkloadOptions workload;

  /// Wall-clock deadline measured from admission; 0 = none. An expired
  /// job is cancelled cooperatively mid-run (or skipped if still
  /// queued) and reported as kDeadline.
  double deadline_ms = 0.0;
  /// Bypass the result-cache lookup (the fresh result is still stored).
  /// The overload drill uses this to assert hit/fresh byte-identity.
  bool no_cache = false;
  /// Client correlation id, echoed verbatim in the response.
  std::string id;
};

/// Terminal outcome of one job.
struct JobResult {
  JobStatus status = JobStatus::kFailed;
  std::string error;            // non-ok: human-readable cause
  std::string metrics_json;     // kOk only: Metrics::to_json bytes
  bool cached = false;          // kOk only: served from the result cache
  std::uint64_t fingerprint = 0;  // job_fingerprint of the request
  double queue_ms = 0.0;        // admission -> worker pickup
  double run_ms = 0.0;          // worker pickup -> terminal state
  /// Abnormal terminations with the flight recorder on: path of the
  /// Chrome-trace artifact the recorder dumped (empty otherwise).
  std::string flight_out;
};

/// One streamed progress observation for a running job, derived from the
/// engines' batch-boundary snapshots (sim/progress.hpp) plus wall-clock
/// bookkeeping. Successive frames for one job are monotone in
/// `events` and `sim_ms`; the supervisor throttles emission to its
/// progress_interval_ms.
struct JobProgress {
  std::string id;               // client correlation id
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;     // kernel events executed so far
  double sim_ms = 0.0;          // simulated time reached
  std::uint64_t done = 0;       // trace records completed
  std::uint64_t total = 0;      // trace records in the job (0 = unknown)
  double percent = -1.0;        // 0..100, -1 when total is unknown
  double eta_ms = -1.0;         // wall-clock estimate, -1 when unknown
  bool final_frame = false;     // engine finished (terminal result follows)
};

inline const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kInvalid: return "invalid";
    case JobStatus::kOverloaded: return "overloaded";
    case JobStatus::kDraining: return "draining";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kDeadline: return "deadline";
  }
  return "unknown";
}

}  // namespace raidsim::svc
