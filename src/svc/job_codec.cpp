#include "svc/job_codec.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/job_key.hpp"

namespace raidsim::svc {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("request: " + what);
}

double number_field(const JsonValue& v, const std::string& key) {
  if (!v.is_number()) bad("'" + key + "' must be a number");
  return v.as_number();
}

bool bool_field(const JsonValue& v, const std::string& key) {
  if (!v.is_bool()) bad("'" + key + "' must be a boolean");
  return v.as_bool();
}

int int_field(const JsonValue& v, const std::string& key) {
  const double n = number_field(v, key);
  if (!std::isfinite(n) || n != std::floor(n) ||
      n < static_cast<double>(std::numeric_limits<int>::min()) ||
      n > static_cast<double>(std::numeric_limits<int>::max()))
    bad("'" + key + "' must be an integer");
  return static_cast<int>(n);
}

Organization parse_org(const std::string& v) {
  if (v == "base") return Organization::kBase;
  if (v == "mirror") return Organization::kMirror;
  if (v == "raid5") return Organization::kRaid5;
  if (v == "raid4") return Organization::kRaid4;
  if (v == "raid10") return Organization::kRaid10;
  if (v == "parstrip") return Organization::kParityStriping;
  bad("unknown organization '" + v + "'");
}

SyncPolicy parse_sync(const std::string& v) {
  if (v == "si") return SyncPolicy::kSimultaneousIssue;
  if (v == "rf") return SyncPolicy::kReadFirst;
  if (v == "rfpr") return SyncPolicy::kReadFirstPriority;
  if (v == "df") return SyncPolicy::kDiskFirst;
  if (v == "dfpr") return SyncPolicy::kDiskFirstPriority;
  bad("unknown sync policy '" + v + "'");
}

DiskScheduling parse_sched(const std::string& v) {
  if (v == "fifo") return DiskScheduling::kFifo;
  if (v == "sstf") return DiskScheduling::kSstf;
  if (v == "scan") return DiskScheduling::kScan;
  bad("unknown disk scheduling '" + v + "'");
}

ParityPlacement parse_placement(const std::string& v) {
  if (v == "middle") return ParityPlacement::kMiddleCylinders;
  if (v == "end") return ParityPlacement::kEndCylinders;
  bad("unknown parity placement '" + v + "'");
}

const char* org_name(Organization org) {
  switch (org) {
    case Organization::kBase: return "base";
    case Organization::kMirror: return "mirror";
    case Organization::kRaid5: return "raid5";
    case Organization::kRaid4: return "raid4";
    case Organization::kRaid10: return "raid10";
    case Organization::kParityStriping: return "parstrip";
  }
  return "raid5";
}

const char* sync_name(SyncPolicy sync) {
  switch (sync) {
    case SyncPolicy::kSimultaneousIssue: return "si";
    case SyncPolicy::kReadFirst: return "rf";
    case SyncPolicy::kReadFirstPriority: return "rfpr";
    case SyncPolicy::kDiskFirst: return "df";
    case SyncPolicy::kDiskFirstPriority: return "dfpr";
  }
  return "df";
}

const char* sched_name(DiskScheduling sched) {
  switch (sched) {
    case DiskScheduling::kFifo: return "fifo";
    case DiskScheduling::kSstf: return "sstf";
    case DiskScheduling::kScan: return "scan";
  }
  return "fifo";
}

void apply_tail(SimulationConfig& config, const JsonValue& tail) {
  if (!tail.is_object()) bad("'tail' must be an object");
  for (const auto& [key, value] : tail.as_object()) {
    if (key == "enabled") config.tail.enabled = bool_field(value, key);
    else if (key == "read_deadline_ms")
      config.tail.read_deadline_ms = number_field(value, key);
    else if (key == "hedge_delay_ms")
      config.tail.hedge_delay_ms = number_field(value, key);
    else if (key == "hedge_ewma_factor")
      config.tail.hedge_ewma_factor = number_field(value, key);
    else if (key == "redirect_on_slow")
      config.tail.redirect_on_slow = bool_field(value, key);
    else if (key == "reconstruct_on_slow")
      config.tail.reconstruct_on_slow = bool_field(value, key);
    else if (key == "slow_ewma_factor")
      config.tail.slow_ewma_factor = number_field(value, key);
    else bad("unknown tail key '" + key + "'");
  }
}

void apply_config(SimulationConfig& config, const JsonValue& json) {
  if (!json.is_object()) bad("'config' must be an object");
  for (const auto& [key, value] : json.as_object()) {
    if (key == "org") {
      if (!value.is_string()) bad("'org' must be a string");
      config.organization = parse_org(value.as_string());
    } else if (key == "n") {
      config.array_data_disks = int_field(value, key);
    } else if (key == "su") {
      config.striping_unit_blocks = int_field(value, key);
    } else if (key == "sync") {
      if (!value.is_string()) bad("'sync' must be a string");
      config.sync = parse_sync(value.as_string());
    } else if (key == "parity_placement") {
      if (!value.is_string()) bad("'parity_placement' must be a string");
      config.parity_placement = parse_placement(value.as_string());
    } else if (key == "parity_fine_chunk") {
      config.parity_fine_grain_chunk_blocks = int_field(value, key);
    } else if (key == "sched") {
      if (!value.is_string()) bad("'sched' must be a string");
      config.disk_scheduling = parse_sched(value.as_string());
    } else if (key == "channel_mb_per_s") {
      config.channel_mb_per_second = number_field(value, key);
    } else if (key == "track_buffers") {
      config.track_buffers_per_disk = int_field(value, key);
    } else if (key == "cached") {
      config.cached = bool_field(value, key);
    } else if (key == "cache_mb") {
      const double mb = number_field(value, key);
      if (!std::isfinite(mb) || mb < 0.0 || mb > 1 << 20)
        bad("'cache_mb' out of range");
      config.cache_bytes = static_cast<std::int64_t>(mb * (1 << 20));
    } else if (key == "destage_period_ms") {
      config.destage_period_ms = number_field(value, key);
    } else if (key == "retain_old_data") {
      config.retain_old_data = bool_field(value, key);
    } else if (key == "parity_caching") {
      config.parity_caching = bool_field(value, key);
    } else if (key == "periodic_destage") {
      config.periodic_destage = bool_field(value, key);
    } else if (key == "intent_journal") {
      config.intent_journal = bool_field(value, key);
    } else if (key == "shards") {
      config.shards = int_field(value, key);
    } else if (key == "shard_threads") {
      config.shard_threads = int_field(value, key);
    } else if (key == "sample_interval_ms") {
      config.obs.sample_interval_ms = number_field(value, key);
    } else if (key == "tail") {
      apply_tail(config, value);
    } else {
      bad("unknown config key '" + key + "'");
    }
  }
}

}  // namespace

JobRequest decode_job_request(const JsonValue& request) {
  if (!request.is_object()) bad("not a JSON object");
  JobRequest job;
  for (const auto& [key, value] : request.as_object()) {
    if (key == "op") {
      if (!value.is_string() || value.as_string() != "run")
        bad("'op' must be \"run\"");
    } else if (key == "id") {
      if (!value.is_string()) bad("'id' must be a string");
      job.id = value.as_string();
    } else if (key == "trace") {
      if (!value.is_string()) bad("'trace' must be a string");
      job.trace = value.as_string();
    } else if (key == "scale") {
      job.workload.scale = number_field(value, key);
    } else if (key == "speed") {
      job.workload.speed = number_field(value, key);
    } else if (key == "seed") {
      const double n = number_field(value, key);
      if (!std::isfinite(n) || n < 0.0 || n != std::floor(n) ||
          n > 18446744073709549568.0)
        bad("'seed' must be a non-negative integer");
      job.workload.seed = static_cast<std::uint64_t>(n);
    } else if (key == "deadline_ms") {
      job.deadline_ms = number_field(value, key);
      if (!std::isfinite(job.deadline_ms) || job.deadline_ms < 0.0)
        bad("'deadline_ms' must be finite and >= 0");
    } else if (key == "no_cache") {
      job.no_cache = bool_field(value, key);
    } else if (key == "config") {
      apply_config(job.config, value);
    } else {
      bad("unknown request key '" + key + "'");
    }
  }
  if (job.trace != "trace1" && job.trace != "trace2")
    bad("'trace' must be \"trace1\" or \"trace2\"");
  if (!std::isfinite(job.workload.scale) || job.workload.scale <= 0.0 ||
      job.workload.scale > 1.0)
    bad("'scale' must be in (0, 1]");
  if (!std::isfinite(job.workload.speed) || job.workload.speed <= 0.0)
    bad("'speed' must be positive");
  job.config.validate();
  return job;
}

std::string encode_job_request(const JobRequest& request) {
  std::ostringstream os;
  os << "{\"op\":\"run\"";
  if (!request.id.empty()) os << ",\"id\":" << json_quote(request.id);
  os << ",\"trace\":" << json_quote(request.trace);
  char buf[40];
  auto num = [&buf](double v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  os << ",\"scale\":" << num(request.workload.scale)
     << ",\"speed\":" << num(request.workload.speed)
     << ",\"seed\":" << request.workload.seed;
  if (request.deadline_ms > 0.0)
    os << ",\"deadline_ms\":" << num(request.deadline_ms);
  if (request.no_cache) os << ",\"no_cache\":true";

  const SimulationConfig& c = request.config;
  const SimulationConfig defaults;
  os << ",\"config\":{\"org\":\"" << org_name(c.organization) << "\""
     << ",\"n\":" << c.array_data_disks
     << ",\"su\":" << c.striping_unit_blocks
     << ",\"sync\":\"" << sync_name(c.sync) << "\""
     << ",\"parity_placement\":\""
     << (c.parity_placement == ParityPlacement::kMiddleCylinders ? "middle"
                                                                 : "end")
     << "\""
     << ",\"parity_fine_chunk\":" << c.parity_fine_grain_chunk_blocks
     << ",\"sched\":\"" << sched_name(c.disk_scheduling) << "\""
     << ",\"channel_mb_per_s\":" << num(c.channel_mb_per_second)
     << ",\"track_buffers\":" << c.track_buffers_per_disk
     << ",\"cached\":" << (c.cached ? "true" : "false")
     << ",\"cache_mb\":"
     << num(static_cast<double>(c.cache_bytes) / (1 << 20))
     << ",\"destage_period_ms\":" << num(c.destage_period_ms)
     << ",\"retain_old_data\":" << (c.retain_old_data ? "true" : "false")
     << ",\"parity_caching\":" << (c.parity_caching ? "true" : "false")
     << ",\"periodic_destage\":" << (c.periodic_destage ? "true" : "false")
     << ",\"intent_journal\":" << (c.intent_journal ? "true" : "false")
     << ",\"shards\":" << c.shards
     << ",\"shard_threads\":" << c.shard_threads;
  if (c.obs.sample_interval_ms != defaults.obs.sample_interval_ms)
    os << ",\"sample_interval_ms\":" << num(c.obs.sample_interval_ms);
  os << ",\"tail\":{\"enabled\":" << (c.tail.enabled ? "true" : "false")
     << ",\"read_deadline_ms\":" << num(c.tail.read_deadline_ms)
     << ",\"hedge_delay_ms\":" << num(c.tail.hedge_delay_ms)
     << ",\"hedge_ewma_factor\":" << num(c.tail.hedge_ewma_factor)
     << ",\"redirect_on_slow\":" << (c.tail.redirect_on_slow ? "true" : "false")
     << ",\"reconstruct_on_slow\":"
     << (c.tail.reconstruct_on_slow ? "true" : "false")
     << ",\"slow_ewma_factor\":" << num(c.tail.slow_ewma_factor) << "}}}";
  return os.str();
}

std::string encode_job_response(const JobResult& result,
                                const std::string& id) {
  std::ostringstream os;
  os << "{\"id\":" << json_quote(id) << ",\"status\":\""
     << to_string(result.status) << "\"";
  if (!result.error.empty()) os << ",\"error\":" << json_quote(result.error);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(result.fingerprint));
  os << ",\"key\":\"" << buf << "\"";
  std::snprintf(buf, sizeof(buf), "%.3f", result.queue_ms);
  os << ",\"queue_ms\":" << buf;
  std::snprintf(buf, sizeof(buf), "%.3f", result.run_ms);
  os << ",\"run_ms\":" << buf;
  if (result.status == JobStatus::kOk) {
    os << ",\"cached\":" << (result.cached ? "true" : "false")
       << ",\"metrics\":" << result.metrics_json;
  }
  if (!result.flight_out.empty())
    os << ",\"flight\":" << json_quote(result.flight_out);
  os << "}\n";
  return os.str();
}

std::string encode_progress_frame(const JobProgress& progress) {
  std::ostringstream os;
  os << "{\"type\":\"progress\",\"id\":" << json_quote(progress.id);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(progress.fingerprint));
  os << ",\"key\":\"" << buf << "\"";
  os << ",\"events\":" << progress.events;
  std::snprintf(buf, sizeof(buf), "%.3f", progress.sim_ms);
  os << ",\"sim_ms\":" << buf;
  os << ",\"done\":" << progress.done << ",\"total\":" << progress.total;
  if (progress.percent >= 0.0) {
    std::snprintf(buf, sizeof(buf), "%.2f", progress.percent);
    os << ",\"percent\":" << buf;
  }
  if (progress.eta_ms >= 0.0) {
    std::snprintf(buf, sizeof(buf), "%.1f", progress.eta_ms);
    os << ",\"eta_ms\":" << buf;
  }
  os << ",\"final\":" << (progress.final_frame ? "true" : "false") << "}\n";
  return os.str();
}

std::string encode_error_response(const std::string& id, JobStatus status,
                                  const std::string& error) {
  std::ostringstream os;
  os << "{\"id\":" << json_quote(id) << ",\"status\":\"" << to_string(status)
     << "\",\"error\":" << json_quote(error) << "}\n";
  return os.str();
}

}  // namespace raidsim::svc
