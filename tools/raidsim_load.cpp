// raidsim_load: closed-loop load client for the what-if daemon.
//
// Opens N concurrent connections; each one sends `run` jobs back to
// back (a new request the moment the previous response lands) until its
// request budget is spent. Every response is tallied by typed status,
// and the combined tally is printed as one JSON line on stdout.
//
// Exit status: 0 when every request got a well-formed typed response
// (rejections included -- overload shedding is correct behavior under
// saturation); 1 on any transport error, malformed response, or hang.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/job_codec.hpp"
#include "util/parse_number.hpp"

namespace {

struct Tally {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> cached{0};
  std::atomic<std::uint64_t> invalid{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> draining{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> deadline{0};
  std::atomic<std::uint64_t> transport_errors{0};
};

void usage() {
  std::fprintf(stderr,
               "usage: raidsim_load --socket PATH [options]\n"
               "  --clients N       concurrent connections (default 4)\n"
               "  --requests N      requests per client (default 8)\n"
               "  --scale X         workload scale in (0,1] (default 0.02)\n"
               "  --trace NAME      trace1|trace2 (default trace2)\n"
               "  --deadline-ms X   per-job deadline (default none)\n"
               "  --seed-base N     seed for client c, request r = base+c*1000+r\n"
               "  --same-seed       every request uses seed-base (cache hits)\n"
               "  --no-cache        bypass the server result cache lookup\n"
               "  --timeout-ms X    client receive timeout (default 120000)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int clients = 4;
  int requests = 8;
  double scale = 0.02;
  std::string trace = "trace2";
  double deadline_ms = 0.0;
  std::uint64_t seed_base = 1;
  bool same_seed = false;
  bool no_cache = false;
  double timeout_ms = 120000.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "raidsim_load: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric option's value, parsed whole into `out`.
    auto number = [&]<class T>(T& out) {
      out = raidsim::parse_number_arg<T>("raidsim_load", arg, value());
    };
    if (arg == "--socket") socket_path = value();
    else if (arg == "--clients") number(clients);
    else if (arg == "--requests") number(requests);
    else if (arg == "--scale") number(scale);
    else if (arg == "--trace") trace = value();
    else if (arg == "--deadline-ms") number(deadline_ms);
    else if (arg == "--seed-base") number(seed_base);
    else if (arg == "--same-seed") same_seed = true;
    else if (arg == "--no-cache") no_cache = true;
    else if (arg == "--timeout-ms") number(timeout_ms);
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "raidsim_load: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (socket_path.empty() || clients < 1 || requests < 1) {
    usage();
    return 2;
  }

  Tally tally;
  auto client_loop = [&](int index) {
    try {
      raidsim::svc::Client client(socket_path, timeout_ms);
      for (int r = 0; r < requests; ++r) {
        raidsim::svc::JobRequest job;
        job.trace = trace;
        job.workload.scale = scale;
        job.workload.seed =
            same_seed ? seed_base
                      : seed_base + static_cast<std::uint64_t>(index) * 1000 +
                            static_cast<std::uint64_t>(r);
        job.deadline_ms = deadline_ms;
        job.no_cache = no_cache;
        char id[48];
        std::snprintf(id, sizeof(id), "c%d-r%d", index, r);
        job.id = id;
        tally.sent.fetch_add(1);
        const raidsim::svc::JsonValue response =
            client.request(raidsim::svc::encode_job_request(job));
        const std::string status = response.find("status") != nullptr
                                       ? response.find("status")->as_string()
                                       : "?";
        if (status == "ok") {
          tally.ok.fetch_add(1);
          const raidsim::svc::JsonValue* cached = response.find("cached");
          if (cached != nullptr && cached->is_bool() && cached->as_bool())
            tally.cached.fetch_add(1);
        } else if (status == "invalid") tally.invalid.fetch_add(1);
        else if (status == "overloaded") tally.overloaded.fetch_add(1);
        else if (status == "draining") tally.draining.fetch_add(1);
        else if (status == "failed") tally.failed.fetch_add(1);
        else if (status == "cancelled") tally.cancelled.fetch_add(1);
        else if (status == "deadline") tally.deadline.fetch_add(1);
        else tally.transport_errors.fetch_add(1);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "raidsim_load: client %d: %s\n", index, e.what());
      tally.transport_errors.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  for (auto& t : threads) t.join();

  std::printf(
      "{\"sent\":%llu,\"ok\":%llu,\"cached\":%llu,\"invalid\":%llu,"
      "\"overloaded\":%llu,\"draining\":%llu,\"failed\":%llu,"
      "\"cancelled\":%llu,\"deadline\":%llu,\"transport_errors\":%llu}\n",
      static_cast<unsigned long long>(tally.sent.load()),
      static_cast<unsigned long long>(tally.ok.load()),
      static_cast<unsigned long long>(tally.cached.load()),
      static_cast<unsigned long long>(tally.invalid.load()),
      static_cast<unsigned long long>(tally.overloaded.load()),
      static_cast<unsigned long long>(tally.draining.load()),
      static_cast<unsigned long long>(tally.failed.load()),
      static_cast<unsigned long long>(tally.cancelled.load()),
      static_cast<unsigned long long>(tally.deadline.load()),
      static_cast<unsigned long long>(tally.transport_errors.load()));
  return tally.transport_errors.load() == 0 ? 0 : 1;
}
