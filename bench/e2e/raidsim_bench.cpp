// raidsim_bench: host-time benchmark of trace replay through the paper's
// array organizations. Each workload runs in its own child process (so
// its peak RSS is its own): a discarded warm-up rep, then reps of
// make_workload + engine construction + replay until --seconds have
// passed. Every rep's outputs are checked and failed reps are counted;
// the sharded workload adds one single-thread rep as a check. With
// --traced a second child times each layer from outside and writes its
// spans as a Chrome trace. See README.md in this directory.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "heap_count.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "svc/json.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace {

using raidsim::svc::JsonValue;
using Object = JsonValue::Object;
using Array = JsonValue::Array;
using namespace raidsim_bench;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr double kDefaultSeconds = 20.0;
constexpr int kMinReps = 3;                  // when the reps are time-bounded
constexpr int kSetupWarmups = 5;
constexpr int kSetupSamples = 101;
constexpr std::size_t kMaxListedFailures = 8;

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  int reps = -1;  // < 0: as many as fit in `seconds`, at least kMinReps
  bool smoke = false;
  bool traced = false;
  bool bless = false;
  std::string trace_out;
  std::string out;
};

JsonValue num(double v) { return JsonValue(v); }
JsonValue str(std::string s) { return JsonValue(std::move(s)); }

JsonValue metric(double value, const std::string& unit) {
  Object o;
  o["value"] = num(value);
  o["unit"] = str(unit);
  return JsonValue(std::move(o));
}

JsonValue metric(const Summary& s, const std::string& unit) {
  Object o;
  o["value"] = num(s.median);
  o["q1"] = num(s.q1);
  o["q3"] = num(s.q3);
  o["n"] = num(static_cast<double>(s.n));
  o["unit"] = str(unit);
  return JsonValue(std::move(o));
}

double number(const Object& object, const char* key) {
  const auto it = object.find(key);
  if (it == object.end() || !it->second.is_number())
    throw std::runtime_error(std::string("result lacks ") + key);
  return it->second.as_number();
}

double number(const JsonValue& value, const char* key) {
  return number(value.as_object(), key);
}

std::filesystem::path binary_dir() {
  return std::filesystem::read_symlink("/proc/self/exe").parent_path();
}

std::string expected_dir() {
  return std::string(RAIDSIM_BENCH_SOURCE_DIR) + "/bench/e2e/expected";
}

/// HEAD of the source checkout, read from .git without running git;
/// "unknown" outside a git checkout.
std::string git_sha() {
  const std::filesystem::path git =
      std::filesystem::path(RAIDSIM_BENCH_SOURCE_DIR) / ".git";
  auto first_line = [](const std::filesystem::path& p) {
    std::ifstream in(p);
    std::string line;
    std::getline(in, line);
    return line;
  };
  std::string head = first_line(git / "HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  if (std::string sha = first_line(git / ref); !sha.empty()) return sha;
  std::ifstream packed(git / "packed-refs");
  for (std::string line; std::getline(packed, line);)
    if (line.size() > 41 && line.substr(41) == ref) return line.substr(0, 40);
  return "unknown";
}

[[noreturn]] void usage(int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: raidsim_bench (--all | --workload=NAME[,NAME...]) [options]\n"
        "  --seed=N          workload seed (default " << kDefaultSeed << ")\n"
        "  --seconds=S       measure each workload for S seconds (default "
     << kDefaultSeconds << ")\n"
        "  --reps=N          exactly N measured reps instead of --seconds\n"
        "  --smoke           every workload at a tiny scale, 1 rep\n"
        "  --traced          add the traced per-layer run\n"
        "  --trace-out=DIR   span files of the traced run (default <build>/traces)\n"
        "  --out=FILE        results JSON (default <build>/results.json)\n"
        "  --bless           record this seed's fingerprints as expected\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options opt;
  auto value_of = [](const std::string& arg, const std::string& flag) {
    return arg.rfind(flag + "=", 0) == 0 ? arg.substr(flag.size() + 1)
                                         : std::string();
  };
  bool all = false;
  std::string names;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--all") {
        all = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--traced") {
        opt.traced = true;
      } else if (arg == "--bless") {
        opt.bless = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(0);
      } else if (auto v = value_of(arg, "--workload"); !v.empty()) {
        names = v;
      } else if (auto v = value_of(arg, "--seed"); !v.empty()) {
        std::size_t used = 0;
        opt.seed = std::stoull(v, &used);
        if (used != v.size() || v[0] == '-') throw std::invalid_argument(arg);
      } else if (auto v = value_of(arg, "--seconds"); !v.empty()) {
        opt.seconds = std::stod(v);
        if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
          throw std::invalid_argument(arg);
      } else if (auto v = value_of(arg, "--reps"); !v.empty()) {
        opt.reps = std::stoi(v);
        if (opt.reps < 0) throw std::invalid_argument(arg);
      } else if (auto v = value_of(arg, "--trace-out"); !v.empty()) {
        opt.trace_out = v;
      } else if (auto v = value_of(arg, "--out"); !v.empty()) {
        opt.out = v;
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        usage(2);
      }
    }
  } catch (const std::exception&) {
    std::cerr << "bad argument value\n";
    usage(2);
  }
  if (all) {
    for (const auto& w : all_workloads()) opt.workloads.push_back(&w);
  } else {
    std::stringstream list(names);
    for (std::string name; std::getline(list, name, ',');) {
      const Workload* w = find_workload(name);
      if (w == nullptr) {
        std::cerr << "unknown workload: " << name << "; workloads are";
        for (const auto& known : all_workloads()) std::cerr << " " << known.name;
        std::cerr << "\n";
        std::exit(2);
      }
      opt.workloads.push_back(w);
    }
  }
  if (opt.workloads.empty()) usage(2);
  if (opt.smoke && opt.reps < 0) opt.reps = 1;
  if (opt.smoke && opt.bless) {
    std::cerr << "--bless records full-scale fingerprints; drop --smoke\n";
    std::exit(2);
  }
  if (opt.trace_out.empty()) opt.trace_out = binary_dir() / "traces";
  if (opt.out.empty()) opt.out = binary_dir() / "results.json";
  return opt;
}

// ------------------------------------------------------------ processes

struct ChildResult {
  std::string text;
  double peak_rss_mb = 0.0;
  std::string error;  // empty when the child exited 0
};

/// Runs `body` in a forked child; its returned text comes back through a
/// pipe, and its peak RSS from wait4.
template <typename Body>
ChildResult in_child(Body&& body) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string text;
    try {
      text = body();
    } catch (const std::exception& e) {
      text = e.what();
      code = 3;
    }
    for (std::size_t off = 0; off < text.size();) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n <= 0 && errno != EINTR) break;
      if (n > 0) off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  ChildResult result;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      result.text.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (WIFSIGNALED(status)) {
    result.error = "child killed by signal " + std::to_string(WTERMSIG(status));
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.error = "child failed: " + result.text;
  }
  return result;
}

// ------------------------------------------------------- untraced reps

/// The reason a rep's outputs are wrong, or "" when they are right.
std::string check_rep(const RepResult& r, const std::string& reference_json,
                      const std::optional<Fingerprint>& expected) {
  if (r.metrics.requests != r.records)
    return "stranded requests: " + std::to_string(r.metrics.requests) +
           " completed of " + std::to_string(r.records);
  std::ostringstream json;
  r.metrics.to_json(json);
  if (json.str() != reference_json)
    return "Metrics::to_json differs from the warm-up rep";
  if (expected) {
    const std::string why = Fingerprint::of(r.metrics).mismatch(*expected);
    if (!why.empty()) return "fingerprint differs from expected: " + why;
  }
  return "";
}

std::string measure_untraced(const Workload& w, const Options& opt) {
  const RepResult warm = run_rep(w, opt.seed);  // timing discarded
  std::ostringstream reference_json;
  warm.metrics.to_json(reference_json);
  const Fingerprint fingerprint = Fingerprint::of(warm.metrics);
  std::optional<Fingerprint> expected;
  if (!opt.smoke && !opt.bless)
    expected = load_expected(expected_dir(), w.name, opt.seed);

  std::vector<double> wall, cpu, allocs;
  std::uint64_t attempted = 0, failed = 0;
  Array failures;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (int rep = 0;; ++rep) {
    if (opt.reps >= 0 ? rep >= opt.reps
                      : rep >= kMinReps && now_ns() >= deadline)
      break;
    ++attempted;
    std::string why;
    try {
      const std::uint64_t before = heap_allocations();
      const RepResult r = run_rep(w, opt.seed);
      const std::uint64_t heap = heap_allocations() - before;
      wall.push_back(r.wall_s);
      cpu.push_back(r.cpu_s);
      allocs.push_back(static_cast<double>(heap) /
                       static_cast<double>(std::max<std::uint64_t>(1, r.records)));
      why = check_rep(r, reference_json.str(), expected);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (!why.empty()) {
      ++failed;
      if (failures.size() < kMaxListedFailures)
        failures.push_back(str("rep " + std::to_string(rep) + ": " + why));
    }
  }
  if (w.sharded()) {
    // One more rep on a single worker thread: results must not depend on
    // the thread count. Run after the timed reps so it cannot warm them.
    ++attempted;
    std::string why;
    try {
      why = check_rep(run_rep(w, opt.seed, 1), reference_json.str(), expected);
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    if (!why.empty()) {
      ++failed;
      failures.push_back(str("shard_threads=1 rep: " + why));
    }
  }
  // Set-up is timed on its own, after the reps, so its sample count and
  // surroundings are the same in every run.
  std::vector<double> setup;
  for (int i = 0; i < kSetupWarmups + kSetupSamples; ++i) {
    const double s = time_setup(w, opt.seed);
    if (i >= kSetupWarmups) setup.push_back(s);
  }

  if (opt.bless) {
    store_expected(expected_dir(), w.name, opt.seed, fingerprint);
    std::cerr << "[raidsim_bench] " << w.name << ": blessed seed " << opt.seed
              << "\n";
  }

  const auto records = static_cast<double>(warm.records);
  Object metrics;
  if (!wall.empty()) {
    // Rate = requests / median rep wall; its quartiles mirror the walls'.
    const Summary walls = summarize(wall);
    Summary rate = walls;
    rate.median = records / walls.median;
    rate.q1 = records / walls.q3;
    rate.q3 = records / walls.q1;
    metrics["requests_per_sec"] = metric(rate, "1/s");
  }
  metrics["setup_s"] = metric(summarize(setup), "s");
  Object model;
  for (const auto& v : model_metrics(warm.metrics))
    model[v.name] = metric(v.value, v.unit);
  if (!allocs.empty())
    model["host.heap_allocs_per_request"] = metric(summarize(allocs).median, "count");

  Object samples;
  auto list = [](const std::vector<double>& v) {
    Array a;
    for (const double x : v) a.push_back(num(x));
    return JsonValue(std::move(a));
  };
  samples["wall_s"] = list(wall);
  samples["setup_s"] = list(setup);
  samples["cpu_s"] = list(cpu);

  Object reference;
  reference["cpu_s"] = num(summarize(cpu).median);
  reference["events_executed"] = num(static_cast<double>(warm.metrics.events_executed));
  reference["disk_ops"] = num(static_cast<double>(warm.metrics.disk_totals.ops()));

  Object result;
  result["requests"] = num(records);
  result["attempted"] = num(static_cast<double>(attempted));
  result["failed"] = num(static_cast<double>(failed));
  result["failures"] = JsonValue(std::move(failures));
  result["fingerprint"] = fingerprint.to_json();
  result["expected_checked"] = JsonValue(expected.has_value());
  result["metrics"] = JsonValue(std::move(metrics));
  result["layers"] = JsonValue(std::move(model));
  result["samples"] = JsonValue(std::move(samples));
  result["reference"] = JsonValue(std::move(reference));
  return JsonValue(std::move(result)).dump();
}

std::string measure_traced(const Workload& w, const Options& opt,
                           const UntracedReference& reference) {
  SpanRecorder spans;
  const auto values = traced_run(w, opt.seed, reference, spans);
  std::filesystem::create_directories(opt.trace_out);
  const std::string path = opt.trace_out + "/" + w.name + ".trace.json";
  spans.write_chrome_trace(path, w.name);
  Object layers;
  for (const auto& v : values) layers[v.name] = metric(v.value, v.unit);
  Object result;
  result["layers"] = JsonValue(std::move(layers));
  result["trace_file"] = str(path);
  result["spans"] = num(static_cast<double>(spans.spans().size()));
  return JsonValue(std::move(result)).dump();
}

// --------------------------------------------------------------- output

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void print_workload(const std::string& name, const Object& entry) {
  std::cout << "\n== " << name << "  (" << fmt(number(entry, "requests"))
            << " requests, " << fmt(number(entry, "attempted"))
            << " reps, " << fmt(number(entry, "failed")) << " failed)\n";
  raidsim::TablePrinter e2e({"end-to-end", "median", "q1", "q3", "n", "unit"});
  for (const auto& [metric_name, m] : entry.at("metrics").as_object()) {
    const JsonValue* n = m.find("n");
    const JsonValue* q1 = m.find("q1");
    const JsonValue* q3 = m.find("q3");
    e2e.add_row({metric_name, fmt(number(m, "value")), q1 ? fmt(q1->as_number()) : "-",
                 q3 ? fmt(q3->as_number()) : "-", n ? fmt(n->as_number()) : "1",
                 m.find("unit")->as_string()});
  }
  e2e.print(std::cout);
  raidsim::TablePrinter layers({"per-layer", "value", "unit"});
  for (const auto& [metric_name, m] : entry.at("layers").as_object())
    layers.add_row({metric_name, fmt(number(m, "value")), m.find("unit")->as_string()});
  layers.print(std::cout);
  for (const auto& f : entry.at("failures").as_array())
    std::cout << "  FAILED " << f.as_string() << "\n";
}

Object environment(const Options& opt, int argc, char** argv) {
  std::string command;
  for (int i = 0; i < argc; ++i) {
    if (i > 0) command += ' ';
    command += argv[i];
  }
  Object env;
  env["git_sha"] = str(git_sha());
  env["compiler"] = str(RAIDSIM_BENCH_COMPILER);
  env["flags"] = str(RAIDSIM_BENCH_FLAGS);
  env["build_type"] = str(RAIDSIM_BENCH_BUILD_TYPE);
  env["nproc"] = num(static_cast<double>(std::thread::hardware_concurrency()));
  env["seed"] = str(std::to_string(opt.seed));
  env["reps"] = opt.reps >= 0 ? num(opt.reps) : str("auto");
  env["seconds"] = num(opt.seconds);
  env["mode"] = str(opt.smoke ? "smoke" : "full");
  env["traced"] = JsonValue(opt.traced);
  env["started_unix"] = num(static_cast<double>(std::time(nullptr)));
  env["command"] = str(command);
  return env;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Object env = environment(opt, argc, argv);
  Object results;
  bool any_failed = false;
  try {
    for (const Workload* base : opt.workloads) {
      const Workload w = opt.smoke ? smoke_variant(*base) : *base;
      std::cerr << "[raidsim_bench] " << w.name << ": measuring\n";
      const ChildResult untraced =
          in_child([&] { return measure_untraced(w, opt); });
      Object entry;
      Object metrics, layers;
      if (untraced.error.empty()) {
        entry = raidsim::svc::json_parse(untraced.text).as_object();
        metrics = entry["metrics"].as_object();
        layers = entry["layers"].as_object();
        metrics["peak_rss_mb"] = metric(untraced.peak_rss_mb, "MB");
      } else {
        entry["requests"] = num(0);
        entry["attempted"] = num(1);
        entry["failed"] = num(1);
        entry["failures"] = JsonValue(Array{str(untraced.error)});
      }
      const double attempted = number(entry, "attempted");
      const double failed = number(entry, "failed");
      metrics["failed_pct"] =
          metric(attempted > 0 ? 100.0 * failed / attempted : 100.0, "%");
      any_failed = any_failed || failed > 0;

      if (opt.traced && untraced.error.empty()) {
        std::cerr << "[raidsim_bench] " << w.name << ": traced run\n";
        const JsonValue& ref = entry["reference"];
        UntracedReference reference;
        reference.cpu_s = number(ref, "cpu_s");
        reference.events_executed =
            static_cast<std::uint64_t>(number(ref, "events_executed"));
        reference.disk_ops = static_cast<std::uint64_t>(number(ref, "disk_ops"));
        const ChildResult traced =
            in_child([&] { return measure_traced(w, opt, reference); });
        if (traced.error.empty()) {
          const JsonValue t = raidsim::svc::json_parse(traced.text);
          for (const auto& [name, value] : t.find("layers")->as_object())
            layers[name] = value;
          entry["trace_file"] = *t.find("trace_file");
        } else {
          entry["traced_error"] = str(traced.error);
          any_failed = true;
        }
      }
      entry["metrics"] = JsonValue(std::move(metrics));
      entry["layers"] = JsonValue(std::move(layers));
      print_workload(w.name, entry);
      results[w.name] = JsonValue(std::move(entry));
    }
    Object root;
    root["schema"] = num(1);
    root["env"] = JsonValue(std::move(env));
    root["workloads"] = JsonValue(std::move(results));
    std::filesystem::path out(opt.out);
    if (out.has_parent_path()) std::filesystem::create_directories(out.parent_path());
    std::ofstream file(opt.out);
    file << JsonValue(std::move(root)).dump() << "\n";
    if (!file) throw std::runtime_error("cannot write " + opt.out);
    std::cout << "\nresults: " << opt.out << "\n";
  } catch (const std::exception& e) {
    std::cerr << "raidsim_bench: " << e.what() << "\n";
    return 2;
  }
  return any_failed ? 1 : 0;
}
