#include "core/job_key.hpp"

#include "core/config_fields.hpp"

namespace raidsim {

std::string job_canonical_key(const SimulationConfig& config,
                              const std::string& trace,
                              const WorkloadOptions& workload) {
  std::string key;
  key.reserve(1024);
  key += "raidsim-job-v3;";
  const auto append_field = [&key](const char* name, const auto& value) {
    key.append(name) += '=';
    append_field_value(key, value);
    key += ';';
  };
  for_each_config_field(config, [&](const ConfigField& f, const auto& v) {
    if (f.in_key()) append_field(f.name, v);
  });
  key += "trace=" + trace + ';';
  append_field("scale", workload.scale);
  append_field("speed", workload.speed);
  append_field("seed", workload.seed);
  return key;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t job_fingerprint(const SimulationConfig& config,
                              const std::string& trace,
                              const WorkloadOptions& workload) {
  return fnv1a64(job_canonical_key(config, trace, workload));
}

}  // namespace raidsim
