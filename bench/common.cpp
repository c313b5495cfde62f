#include "common.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "core/job_key.hpp"
#include "util/parse_number.hpp"

namespace raidsim::bench {

namespace {
// Slug of the current experiment, set by banner(), used to name data
// exports.
std::string g_experiment_slug;  // NOLINT(runtime/string)

std::string slugify(const std::string& text) {
  std::string slug;
  for (char ch : text) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
    if (slug.size() >= 48) break;
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? std::string("experiment") : slug;
}
}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 BenchOptions defaults) {
  BenchOptions options = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string what = "option: " + arg;  // for a bad number
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--full") {
      options.scale1 = 1.0;
      options.scale2 = 1.0;
    } else if (arg == "--quick") {
      options.scale1 = 0.05;
      options.scale2 = 0.25;
    } else if (const char* v = value_of("--scale1=")) {
      options.scale1 = parse_number<double>(v, what);
    } else if (const char* v = value_of("--scale2=")) {
      options.scale2 = parse_number<double>(v, what);
    } else if (const char* v = value_of("--seed=")) {
      options.seed = parse_number<std::uint64_t>(v, what);
    } else if (const char* v = value_of("--threads=")) {
      options.threads = parse_number<int>(v, what);
    } else if (const char* v = value_of("--shards=")) {
      options.shards = parse_number<int>(v, what);
    } else if (const char* v = value_of("--shard-threads=")) {
      options.shard_threads = parse_number<int>(v, what);
    } else if (const char* v = value_of("--trace-out=")) {
      options.trace_out = v;
    } else if (const char* v = value_of("--sample-interval-ms=")) {
      options.sample_interval_ms = parse_number<double>(v, what);
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --full --quick --scale1=<f> --scale2=<f> "
                   "--seed=<n> --threads=<n> --shards=<n> "
                   "--shard-threads=<n> --trace-out=<prefix> "
                   "--sample-interval-ms=<t> --verbose\n"
                   "--quick replays trace 1 at 0.05 and trace 2 at 0.25 "
                   "whatever the defaults; --full replays both in full\n";
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown option: " + arg);
    }
  }
  for (const double scale : {options.scale1, options.scale2})
    if (!(scale > 0.0 && scale <= 1.0))
      throw std::invalid_argument("--scale1 and --scale2 must be in (0, 1]");
  return options;
}

BenchOptions parse_or_exit(int argc, char** argv, BenchOptions defaults) {
  try {
    return BenchOptions::parse(argc, argv, defaults);
  } catch (const std::invalid_argument& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(2);
  }
}

WorkloadOptions BenchOptions::workload_options(const std::string& trace,
                                               double speed) const {
  WorkloadOptions wo;
  wo.scale = trace == "trace1" ? scale1 : scale2;
  wo.speed = speed;
  wo.seed = seed;
  return wo;
}

SimulationConfig BenchOptions::engine_config(SimulationConfig config) const {
  if (shards > 0) {
    config.shards = shards;
    config.shard_threads = shard_threads;
  }
  return config;
}

SimulationConfig PointTrace::apply(SimulationConfig config) const {
  if (!prefix.empty()) {
    config.obs.tracing = true;
    if (sample_interval_ms > 0.0)
      config.obs.sample_interval_ms = sample_interval_ms;
  }
  return config;
}

void PointTrace::attach(Simulator& sim) const {
  if (!prefix.empty()) sim.set_artifact_prefix(prefix);
}

Sweep::Sweep(const BenchOptions& options)
    : options_(options), runner_(options.threads) {}

PointTrace Sweep::next_trace() const {
  // One artifact prefix per sweep point, so parallel workers never share
  // a file.
  if (options_.trace_out.empty()) return {};
  return {options_.trace_out + "_" + std::to_string(runner_.queued()),
          options_.sample_interval_ms};
}

std::size_t Sweep::add(const SimulationConfig& config,
                       const std::string& trace, double speed) {
  if (ran_)
    throw std::logic_error("Sweep: add() after results were consumed");
  SweepJob job;
  job.config = options_.engine_config(config);
  job.trace = trace;
  job.workload = options_.workload_options(trace, speed);
  const auto [it, fresh] = queued_.try_emplace(
      job_canonical_key(job.config, trace, job.workload), runner_.queued());
  if (!fresh) return it->second;
  job.label = config.describe() + " " + trace;
  PointTrace traced = next_trace();
  job.trace_out = std::move(traced.prefix);
  job.sample_interval_ms = traced.sample_interval_ms;
  return runner_.submit(std::move(job));
}

std::size_t Sweep::add(std::string label,
                       std::function<Metrics(const PointTrace&)> run) {
  if (ran_)
    throw std::logic_error("Sweep: add() after results were consumed");
  return runner_.submit(std::move(label),
                        [run = std::move(run), traced = next_trace()] {
                          return run(traced);
                        });
}

const Metrics& Sweep::result(std::size_t i) {
  if (!ran_) {
    results_ = runner_.run_all();
    ran_ = true;
    if (options_.verbose)
      for (std::size_t j = 0; j < results_.size(); ++j)
        std::cout << "[" << j << ": " << results_[j].label
                  << ": events_executed="
                  << results_[j].metrics.events_executed
                  << " requests=" << results_[j].metrics.requests << "]\n";
  }
  return results_.at(i).metrics;
}

void banner(const std::string& experiment, const std::string& paper_claim,
            const BenchOptions& options) {
  g_experiment_slug = slugify(experiment);
  std::cout << "== " << experiment << " ==\n";
  std::cout << "paper: " << paper_claim << "\n";
  std::cout << "workload scale: trace1=" << options.scale1
            << " trace2=" << options.scale2
            << " (synthetic stand-ins; see DESIGN.md)\n\n";
}

void print_series_table(const std::string& x_name,
                        const std::vector<std::string>& x_values,
                        const std::string& trace_name,
                        const std::vector<Series>& series,
                        const std::string& value_name) {
  std::vector<std::string> header{x_name};
  for (const auto& s : series) header.push_back(s.name);
  std::cout << trace_name << " -- " << value_name << "\n";
  TablePrinter table(header);
  for (std::size_t i = 0; i < x_values.size(); ++i) {
    std::vector<std::string> row{x_values[i]};
    for (const auto& s : series)
      row.push_back(i < s.values.size() ? TablePrinter::num(s.values[i])
                                        : std::string("-"));
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\n";

  if (const char* dir = std::getenv("RAIDSIM_DATA_DIR")) {
    const std::string path = std::string(dir) + "/" + g_experiment_slug +
                             "_" + slugify(trace_name) + ".csv";
    std::ofstream out(path);
    if (out) {
      CsvWriter csv(out);
      std::vector<std::string> head{x_name.empty() ? value_name : x_name};
      for (const auto& s : series) head.push_back(s.name);
      csv.write_row(head);
      for (std::size_t i = 0; i < x_values.size(); ++i) {
        std::vector<std::string> row{x_values[i]};
        for (const auto& s : series)
          row.push_back(i < s.values.size()
                            ? std::to_string(s.values[i])
                            : std::string());
        csv.write_row(row);
      }
      std::cout << "[data written to " << path << "]\n\n";
    }
  }
}

}  // namespace raidsim::bench
