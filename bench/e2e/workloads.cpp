#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/simulator.hpp"
#include "runner/sharded_sim.hpp"
#include "spans.hpp"

namespace raidsim_bench {

using raidsim::Organization;
using raidsim::SimulationConfig;

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> list;

  // The paper's headline cached config (Tables 1 and 4: RAID5, N = 10,
  // 1-block striping unit, Disk First, FIFO, 16 MB NV cache per array).
  // It runs every layer: generator, cache hits, destage with old-data
  // retention, RMW parity and the kernel.
  Workload cached;
  cached.name = "oltp_raid5_cached";
  cached.trace = "trace1";
  cached.scale = 0.25;
  cached.config.organization = Organization::kRaid5;
  cached.config.cached = true;
  list.push_back(cached);

  // Bypasses the cache, the parity plans and the sync gates but loads the
  // disk model (shortest-seek mirror reads) and the channel: cache and
  // RMW work should not move it.
  Workload mirror;
  mirror.name = "oltp_mirror_uncached";
  mirror.trace = "trace2";
  mirror.config.organization = Organization::kMirror;
  mirror.config.cached = false;
  list.push_back(mirror);

  // RMW parity chains, gated parity writes and deep bursty SSTF queues.
  Workload sstf;
  sstf.name = "update_raid5_sstf_2x";
  sstf.trace = "trace2";
  sstf.speed = 2.0;
  sstf.config.organization = Organization::kRaid5;
  sstf.config.cached = false;
  sstf.config.disk_scheduling = raidsim::DiskScheduling::kSstf;
  list.push_back(sstf);

  // The only run of the sharded engine: its up-front record
  // materialisation (peak memory) and its two-core path.
  Workload sharded;
  sharded.name = "oltp_raid5_sharded_full";
  sharded.trace = "trace1";
  sharded.config.organization = Organization::kRaid5;
  sharded.config.cached = true;
  sharded.config.shards = 13;
  sharded.config.shard_threads = 2;
  list.push_back(sharded);
  return list;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string expected_path(const std::string& dir, const std::string& workload) {
  return dir + "/" + workload + ".json";
}

raidsim::svc::JsonValue::Object load_expected_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream text;
  text << in.rdbuf();
  const auto root = raidsim::svc::json_parse(text.str());
  return root.as_object();
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> list = make_workloads();
  return list;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : all_workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Workload smoke_variant(const Workload& workload) {
  Workload w = workload;
  w.scale *= w.trace == "trace1" ? 0.02 : 0.1;
  return w;
}

RepResult run_rep(const Workload& workload, std::uint64_t seed,
                  int shard_threads) {
  SimulationConfig config = workload.config;
  if (shard_threads > 0) config.shard_threads = shard_threads;
  RepResult r;
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  auto stream = raidsim::make_workload(workload.trace, workload.options(seed));
  r.records = stream->size_hint();
  if (workload.sharded()) {
    raidsim::ShardedSimulator engine(config, stream->geometry(), seed);
    r.metrics = engine.run(*stream);
  } else {
    raidsim::Simulator engine(config, stream->geometry());
    r.metrics = engine.run(*stream);
  }
  r.wall_s = seconds(now_ns() - t0);
  r.cpu_s = process_cpu_s() - cpu0;
  return r;
}

double time_setup(const Workload& workload, std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  auto stream = raidsim::make_workload(workload.trace, workload.options(seed));
  double setup_s = 0.0;
  if (workload.sharded()) {
    raidsim::ShardedSimulator engine(workload.config, stream->geometry(), seed);
    setup_s = seconds(now_ns() - t0);
  } else {
    raidsim::Simulator engine(workload.config, stream->geometry());
    setup_s = seconds(now_ns() - t0);
  }
  return setup_s;
}

Fingerprint Fingerprint::of(const raidsim::Metrics& m) {
  Fingerprint f;
  f.requests = m.requests;
  f.mean_response_ms = m.mean_response_ms();
  f.p99_response_ms = m.response_all.p99();
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint64_t n : m.disk_accesses) {
    f.disk_accesses += n;
    hash = (hash ^ n) * 0x100000001b3ULL;
  }
  f.disk_access_hash = hash;
  f.read_hit_ratio = m.read_hit_ratio();
  f.write_hit_ratio = m.write_hit_ratio();
  return f;
}

raidsim::svc::JsonValue Fingerprint::to_json() const {
  // 64-bit counts travel as decimal strings: a JSON number is a double.
  raidsim::svc::JsonValue::Object o;
  o["requests"] = raidsim::svc::JsonValue(std::to_string(requests));
  o["mean_response_ms"] = raidsim::svc::JsonValue(mean_response_ms);
  o["p99_response_ms"] = raidsim::svc::JsonValue(p99_response_ms);
  o["disk_accesses"] = raidsim::svc::JsonValue(std::to_string(disk_accesses));
  o["disk_access_hash"] = raidsim::svc::JsonValue(std::to_string(disk_access_hash));
  o["read_hit_ratio"] = raidsim::svc::JsonValue(read_hit_ratio);
  o["write_hit_ratio"] = raidsim::svc::JsonValue(write_hit_ratio);
  return raidsim::svc::JsonValue(std::move(o));
}

Fingerprint Fingerprint::from_json(const raidsim::svc::JsonValue& value) {
  auto field = [&](const char* key) -> const raidsim::svc::JsonValue& {
    const auto* v = value.find(key);
    if (v == nullptr)
      throw std::runtime_error(std::string("fingerprint lacks ") + key);
    return *v;
  };
  auto count = [&](const char* key) {
    return static_cast<std::uint64_t>(std::stoull(field(key).as_string()));
  };
  Fingerprint f;
  f.requests = count("requests");
  f.mean_response_ms = field("mean_response_ms").as_number();
  f.p99_response_ms = field("p99_response_ms").as_number();
  f.disk_accesses = count("disk_accesses");
  f.disk_access_hash = count("disk_access_hash");
  f.read_hit_ratio = field("read_hit_ratio").as_number();
  f.write_hit_ratio = field("write_hit_ratio").as_number();
  return f;
}

std::string Fingerprint::mismatch(const Fingerprint& other) const {
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b));
  };
  std::ostringstream why;
  why.precision(17);
  if (requests != other.requests)
    why << "requests " << requests << " vs " << other.requests;
  else if (disk_accesses != other.disk_accesses)
    why << "disk_accesses " << disk_accesses << " vs " << other.disk_accesses;
  else if (disk_access_hash != other.disk_access_hash)
    why << "per-disk access counts differ";
  else if (!close(mean_response_ms, other.mean_response_ms))
    why << "mean_response_ms " << mean_response_ms << " vs "
        << other.mean_response_ms;
  else if (!close(p99_response_ms, other.p99_response_ms))
    why << "p99_response_ms " << p99_response_ms << " vs "
        << other.p99_response_ms;
  else if (!close(read_hit_ratio, other.read_hit_ratio))
    why << "read_hit_ratio " << read_hit_ratio << " vs " << other.read_hit_ratio;
  else if (!close(write_hit_ratio, other.write_hit_ratio))
    why << "write_hit_ratio " << write_hit_ratio << " vs "
        << other.write_hit_ratio;
  return why.str();
}

std::optional<Fingerprint> load_expected(const std::string& dir,
                                         const std::string& workload,
                                         std::uint64_t seed) {
  const auto seeds = load_expected_file(expected_path(dir, workload));
  const auto it = seeds.find(std::to_string(seed));
  if (it == seeds.end()) return std::nullopt;
  return Fingerprint::from_json(it->second);
}

void store_expected(const std::string& dir, const std::string& workload,
                    std::uint64_t seed, const Fingerprint& fingerprint) {
  std::filesystem::create_directories(dir);
  const std::string path = expected_path(dir, workload);
  auto seeds = load_expected_file(path);
  seeds[std::to_string(seed)] = fingerprint.to_json();
  // One seed per line keeps blessing diffs readable.
  std::ofstream out(path);
  out << "{\n";
  bool first = true;
  for (const auto& [key, value] : seeds) {
    out << (first ? "" : ",\n") << raidsim::svc::json_quote(key) << ": "
        << value.dump();
    first = false;
  }
  out << "\n}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace raidsim_bench
