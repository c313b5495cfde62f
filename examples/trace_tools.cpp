// Trace toolbox: generate a synthetic OLTP trace to a file, convert
// between the text and binary trace formats, analyse a trace file
// (Table 2-style statistics), or replay one through a chosen
// organization. Shows the TraceReader/TraceWriter path users take to
// drive the simulator with their own traces. analyze/replay sniff the
// format, and generate picks it from the output extension: `.btrace`
// writes the compact binary format (records bounds-checked up front so
// replays skip per-record validation), anything else the text format.
//
// Usage:
//   trace_tools generate <trace1|trace2> <scale> <out.trace|out.btrace>
//   trace_tools convert <in.trace> <out.trace|out.btrace>
//   trace_tools analyze <file.trace>
//   trace_tools replay <file.trace> <org> [--cached]
//     org: base|mirror|raid5|raid4|parstrip|raid10 (raid4 needs --cached)
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_stats.hpp"
#include "util/parse_number.hpp"
#include "util/table.hpp"

namespace {

int usage() {
  std::cerr << "usage:\n"
               "  trace_tools generate <trace1|trace2> <scale> "
               "<out.trace|out.btrace>\n"
               "  trace_tools convert <in.trace> <out.trace|out.btrace>\n"
               "  trace_tools analyze <file.trace>\n"
               "  trace_tools replay <file.trace> <"
            << raidsim::wire_names<raidsim::Organization>()
            << "> [--cached]\n";
  return 2;
}

bool wants_binary(const std::string& path) {
  const std::string ext = ".btrace";
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

int write_stream(raidsim::TraceStream& stream, const std::string& out_path) {
  if (wants_binary(out_path)) {
    const auto records = raidsim::BinaryTraceWriter::write_file(stream,
                                                                out_path);
    std::cout << "wrote " << out_path << " (" << records
              << " records, binary)\n";
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  raidsim::TraceWriter::write(stream, out);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

int run(int argc, char** argv) {
  using namespace raidsim;
  if (argc < 3) return usage();
  const std::string command = argv[1];

  if (command == "generate") {
    if (argc < 5) return usage();
    WorkloadOptions options;
    try {
      options.scale =
          parse_number<double>(argv[3], std::string("scale: ") + argv[3]);
    } catch (const std::invalid_argument& e) {
      std::cerr << "trace_tools: " << e.what() << "\n";
      return usage();
    }
    auto trace = make_workload(argv[2], options);
    return write_stream(*trace, argv[4]);
  }

  if (command == "convert") {
    if (argc < 4) return usage();
    auto in = open_trace(argv[2]);
    return write_stream(*in, argv[3]);
  }

  if (command == "analyze") {
    auto reader = open_trace(argv[2]);
    const TraceStats stats = TraceStats::collect(*reader);
    std::cout << TraceStats::table({&stats}, {argv[2]});
    return 0;
  }

  if (command == "replay") {
    if (argc < 4) return usage();
    SimulationConfig config;
    config.cached = argc > 4 && std::string(argv[4]) == "--cached";
    try {
      config.organization = parse_wire_name<Organization>(argv[3]);
      config.validate();
    } catch (const std::invalid_argument& e) {
      std::cerr << "trace_tools: " << e.what() << "\n";
      return usage();
    }

    auto reader = open_trace(argv[2]);
    const Metrics m = run_simulation(config, *reader);
    TablePrinter table({"metric", "value"});
    table.add_row({"requests", std::to_string(m.requests)});
    table.add_row({"mean response (ms)",
                   TablePrinter::num(m.mean_response_ms())});
    table.add_row({"p95 response (ms)",
                   TablePrinter::num(m.response_all.p95())});
    table.add_row({"mean disk utilization",
                   TablePrinter::num(m.mean_disk_utilization(), 3)});
    table.print(std::cout);
    return 0;
  }

  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // A missing file, an unknown trace name or a malformed trace is a
  // message and exit 1, not an abort.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "trace_tools: " << e.what() << "\n";
    return 1;
  }
}
