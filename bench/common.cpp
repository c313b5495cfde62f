#include "common.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

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

BenchOptions BenchOptions::parse(int argc, char** argv) {
  return parse(argc, argv, BenchOptions{});
}

BenchOptions BenchOptions::parse(int argc, char** argv,
                                 BenchOptions defaults) {
  BenchOptions options = defaults;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
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
      options.scale1 = std::atof(v);
    } else if (const char* v = value_of("--scale2=")) {
      options.scale2 = std::atof(v);
    } else if (const char* v = value_of("--seed=")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--threads=")) {
      options.threads = std::atoi(v);
    } else if (const char* v = value_of("--shards=")) {
      options.shards = std::atoi(v);
    } else if (const char* v = value_of("--shard-threads=")) {
      options.shard_threads = std::atoi(v);
    } else if (const char* v = value_of("--trace-out=")) {
      options.trace_out = v;
    } else if (const char* v = value_of("--sample-interval-ms=")) {
      options.sample_interval_ms = std::atof(v);
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "options: --full --quick --scale1=<f> --scale2=<f> "
                   "--seed=<n> --threads=<n> --shards=<n> "
                   "--shard-threads=<n> --trace-out=<prefix> "
                   "--sample-interval-ms=<t> --verbose\n";
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown option: " + arg);
    }
  }
  return options;
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

Metrics run_config(const SimulationConfig& config, const std::string& trace,
                   const BenchOptions& options, double speed) {
  // Each traced run of this process gets its own artifact prefix.
  static int run_seq = 0;
  SweepJob job;
  job.config = options.engine_config(config);
  job.trace = trace;
  job.workload = options.workload_options(trace, speed);
  job.label = config.describe() + " " + trace;
  if (!options.trace_out.empty()) {
    job.trace_out = options.trace_out + "_run" + std::to_string(run_seq++);
    job.sample_interval_ms = options.sample_interval_ms;
  }
  const Metrics metrics = run_sweep_job(job);
  if (options.verbose)
    std::cout << "[" << config.describe() << " " << trace
              << ": events_executed=" << metrics.events_executed
              << " requests=" << metrics.requests << "]\n";
  return metrics;
}

Sweep::Sweep(const BenchOptions& options)
    : options_(options), runner_(options.threads) {}

std::size_t Sweep::add(const SimulationConfig& config,
                       const std::string& trace, double speed) {
  if (ran_)
    throw std::logic_error("Sweep: add() after results were consumed");
  SweepJob job;
  job.config = options_.engine_config(config);
  job.trace = trace;
  job.workload = options_.workload_options(trace, speed);
  job.label = config.describe() + " " + trace;
  if (!options_.trace_out.empty()) {
    // One artifact prefix per sweep point, so parallel workers never
    // share a file.
    job.trace_out =
        options_.trace_out + "_" + std::to_string(runner_.queued());
    job.sample_interval_ms = options_.sample_interval_ms;
  }
  return runner_.submit(std::move(job));
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
