#pragma once

#include <string>

#include "svc/job.hpp"
#include "svc/json.hpp"

namespace raidsim::svc {

/// Decode a parsed `{"op":"run", ...}` request into a JobRequest.
/// Strict: unknown keys, wrong types, and out-of-range values throw
/// std::invalid_argument with a message naming the key -- hostile input
/// gets a typed `invalid` response, never a partially-applied config.
/// The embedded SimulationConfig is additionally passed through
/// SimulationConfig::validate().
JobRequest decode_job_request(const JsonValue& request);

/// Encode the full JobRequest (including the workload) back to the
/// config JSON the protocol accepts -- used by clients and tests to
/// round-trip requests.
std::string encode_job_request(const JobRequest& request);

/// One NDJSON response line (newline included). `metrics_json` is
/// embedded verbatim for kOk results, so cache hits are byte-identical
/// to fresh runs at the protocol level too.
std::string encode_job_response(const JobResult& result,
                                const std::string& id);

/// Typed error line for requests that never became jobs (protocol
/// errors, unknown ops).
std::string encode_error_response(const std::string& id, JobStatus status,
                                  const std::string& error);

/// One streamed progress line (newline included):
///   {"type":"progress","id":...,"key":K,"events":N,"sim_ms":T,
///    "done":D,"total":R,"percent":P,"eta_ms":E,"final":false}
/// `percent`/`eta_ms` are omitted when unknown. Response lines never
/// carry "type", so clients can split frames from terminal responses on
/// that key alone.
std::string encode_progress_frame(const JobProgress& progress);

}  // namespace raidsim::svc
