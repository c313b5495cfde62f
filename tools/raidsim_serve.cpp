// raidsim_serve: the what-if simulation daemon.
//
// Accepts newline-delimited JSON jobs over a local AF_UNIX socket and
// runs them on a bounded worker pool with admission control, a result
// cache, and graceful drain on SIGTERM/SIGINT (stop admitting, finish or
// cancel in-flight work inside the drain budget, flush final stats).
// Per-job deadlines, the stuck-job guard and the drain budget are all
// expiry times on the job's cancellation token, which the engine polls
// every event batch. See docs/service.md for the protocol.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "obs/export.hpp"
#include "svc/server.hpp"
#include "util/parse_number.hpp"

namespace {

raidsim::svc::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();  // async-signal-safe
}

void usage() {
  std::fprintf(stderr,
               "usage: raidsim_serve --socket PATH [options]\n"
               "  --socket PATH      AF_UNIX socket path (required)\n"
               "  --workers N        worker threads (default 2)\n"
               "  --queue N          admission queue capacity (default 8)\n"
               "  --cache N          result-cache entries (default 128)\n"
               "  --stuck-ms X       cancel jobs running longer than X (default off)\n"
               "  --drain-ms X       drain budget on shutdown (default 5000)\n"
               "  --trace-out PREFIX service-level Chrome trace on shutdown\n"
               "  --flight-dir DIR   flight recorder: dump a Chrome trace of\n"
               "                     the last spans when a job dies abnormally\n"
               "  --flight-events N  flight-recorder ring capacity (default 4096)\n"
               "  --progress-ms X    min spacing of streamed progress frames\n"
               "                     (default 50)\n");
}

}  // namespace

int main(int argc, char** argv) {
  raidsim::svc::Server::Options opts;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "raidsim_serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric option's value, parsed whole into `out`.
    auto number = [&]<class T>(T& out) {
      out = raidsim::parse_number_arg<T>("raidsim_serve", arg, value());
    };
    auto& sup = opts.supervisor;
    if (arg == "--socket") opts.socket_path = value();
    else if (arg == "--workers") number(sup.workers);
    else if (arg == "--queue") number(sup.queue_capacity);
    else if (arg == "--cache") number(sup.cache_capacity);
    else if (arg == "--stuck-ms") number(sup.stuck_job_ms);
    else if (arg == "--drain-ms") number(sup.drain_budget_ms);
    else if (arg == "--trace-out") {
      trace_out = value();
      sup.tracing = true;
    } else if (arg == "--flight-dir") {
      sup.flight_dir = value();
    } else if (arg == "--flight-events") {
      number(sup.flight_events);
    } else if (arg == "--progress-ms") {
      number(sup.progress_interval_ms);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "raidsim_serve: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (opts.socket_path.empty()) {
    usage();
    return 2;
  }

  try {
    raidsim::svc::Server server(opts);
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGPIPE, SIG_IGN);
    std::fprintf(stderr, "raidsim_serve: listening on %s\n",
                 opts.socket_path.c_str());
    server.run();
    if (!trace_out.empty() && server.supervisor().tracer() != nullptr) {
      std::ofstream out(trace_out + ".trace.json");
      raidsim::write_chrome_trace(out, *server.supervisor().tracer());
      std::fprintf(stderr, "raidsim_serve: wrote %s.trace.json\n",
                   trace_out.c_str());
    }
    g_server = nullptr;
    std::fprintf(stderr, "raidsim_serve: drained, exiting\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "raidsim_serve: fatal: %s\n", e.what());
    return 1;
  }
}
