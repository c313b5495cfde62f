#include "svc/job_codec.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "core/config_fields.hpp"

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

template <class T>
void decode_field(const std::string& key, const JsonValue& v, T& field) {
  if constexpr (std::is_enum_v<T>) {
    if (!v.is_string()) bad("'" + key + "' must be a string");
    try {
      field = parse_wire_name<T>(v.as_string());
    } catch (const std::invalid_argument& e) {
      bad(e.what());
    }
  } else if constexpr (std::is_same_v<T, bool>) {
    field = bool_field(v, key);
  } else if constexpr (std::is_same_v<T, int>) {
    field = int_field(v, key);
  } else if constexpr (std::is_same_v<T, double>) {
    field = number_field(v, key);
  } else {  // a byte count carried in MiB (ConfigField::kMebibytes)
    const double mb = number_field(v, key);
    if (!std::isfinite(mb) || mb < 0.0 || mb > 1 << 20)
      bad("'" + key + "' out of range");
    field = static_cast<T>(mb * (1 << 20));
  }
}

/// Applies the wire "config" object `json` to `config`.
void apply_config(SimulationConfig& config, const JsonValue& json) {
  if (!json.is_object()) bad("'config' must be an object");
  for (const auto& [key, value] : json.as_object()) {
    bool found = false;
    for_each_config_field(config, [&](const ConfigField& f, auto& field) {
      if (f.on_wire() && key == f.name) {
        decode_field(key, value, field);
        found = true;
      }
    });
    if (!found) bad("unknown config key '" + key + "'");
  }
}

/// The wire "config" object: the on-wire fields in list order.
std::string encode_config(const SimulationConfig& config) {
  std::string out = "{";
  for_each_config_field(config, [&](const ConfigField& f, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    if (!f.on_wire() || ((f.flags & ConfigField::kOmitZero) && v == T{}))
      return;
    if (out.back() != '{') out += ',';
    out.append("\"").append(f.name) += "\":";
    if constexpr (std::is_enum_v<T>)
      out += '"' + wire_name(v) + '"';
    else if (f.flags & ConfigField::kMebibytes)
      append_field_value(out, static_cast<double>(v) / (1 << 20));
    else
      append_field_value(out, v);
  });
  return out + "}";
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
  const auto num = [](double v) {
    std::string text;
    append_field_value(text, v);
    return text;
  };
  os << ",\"scale\":" << num(request.workload.scale)
     << ",\"speed\":" << num(request.workload.speed)
     << ",\"seed\":" << request.workload.seed;
  if (request.deadline_ms > 0.0)
    os << ",\"deadline_ms\":" << num(request.deadline_ms);
  if (request.no_cache) os << ",\"no_cache\":true";

  os << ",\"config\":" << encode_config(request.config) << '}';
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
