// raidsim_top: live terminal view of a running raidsim_serve daemon.
//
// Two connections drive the display: a polling connection issues
// `metrics` scrapes (Prometheus text) on each refresh, and a subscribed
// connection receives the progress-frame firehose ({"type":"progress"}
// lines) that every running job streams from its engine's event-batch
// boundaries. The screen shows queue depth, in-flight count, goodput /
// shed / deadline rates (derived from scrape deltas), and one progress bar
// per active job.
//
// Usage: raidsim_top --socket PATH [--interval-ms N] [--once]
//   --once prints a single plain-text snapshot (no ANSI) and exits --
//   the mode CI uses to smoke the whole metrics+subscribe path.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.hpp"
#include "svc/json.hpp"
#include "util/parse_number.hpp"

namespace {

using raidsim::svc::JsonValue;

struct JobRow {
  std::string id;
  double percent = -1.0;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t events = 0;
  double sim_ms = 0.0;
  double eta_ms = -1.0;
  bool final_frame = false;
  std::chrono::steady_clock::time_point updated;
};

/// Subscriber connection: its own fd so progress frames never interleave
/// with the poller's request/response pairs.
class Firehose {
 public:
  explicit Firehose(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("raidsim_top: socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error("raidsim_top: connect(" + socket_path +
                               ") failed: " + std::strerror(errno));
    static const char kSubscribe[] = "{\"op\":\"subscribe\"}\n";
    if (::send(fd_, kSubscribe, sizeof(kSubscribe) - 1, MSG_NOSIGNAL) < 0)
      throw std::runtime_error("raidsim_top: subscribe failed");
    reader_ = std::thread([this] { read_loop(); });
  }

  ~Firehose() {
    stop_.store(true, std::memory_order_release);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (reader_.joinable()) reader_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  /// Snapshot of the live job table; finished/stale rows pruned.
  std::vector<JobRow> jobs() {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<JobRow> out;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      const auto age = now - it->second.updated;
      const bool drop = it->second.final_frame
                            ? age > std::chrono::seconds(2)
                            : age > std::chrono::seconds(15);
      if (drop) {
        it = jobs_.erase(it);
      } else {
        out.push_back(it->second);
        ++it;
      }
    }
    return out;
  }

  std::uint64_t frames_seen() const {
    return frames_.load(std::memory_order_relaxed);
  }
  bool alive() const { return !dead_.load(std::memory_order_acquire); }

 private:
  void read_loop() {
    std::string buffer;
    char chunk[4096];
    while (!stop_.load(std::memory_order_acquire)) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (n == 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = buffer.find('\n', start);
        if (nl == std::string::npos) break;
        handle_line(buffer.substr(start, nl - start));
        start = nl + 1;
      }
      buffer.erase(0, start);
    }
    dead_.store(true, std::memory_order_release);
  }

  void handle_line(const std::string& line) {
    JsonValue frame;
    try {
      frame = raidsim::svc::json_parse(line);
    } catch (...) {
      return;  // not ours to crash on
    }
    const JsonValue* type = frame.find("type");
    if (type == nullptr || !type->is_string() ||
        type->as_string() != "progress")
      return;  // subscribe ack or an unrelated response
    frames_.fetch_add(1, std::memory_order_relaxed);

    JobRow row;
    if (const JsonValue* v = frame.find("id"); v && v->is_string())
      row.id = v->as_string();
    std::string key = row.id;
    if (const JsonValue* v = frame.find("key"); v && v->is_string()) {
      if (key.empty()) key = v->as_string();
      if (row.id.empty()) row.id = v->as_string().substr(0, 8);
    }
    if (const JsonValue* v = frame.find("percent"); v && v->is_number())
      row.percent = v->as_number();
    if (const JsonValue* v = frame.find("done"); v && v->is_number())
      row.done = static_cast<std::uint64_t>(v->as_number());
    if (const JsonValue* v = frame.find("total"); v && v->is_number())
      row.total = static_cast<std::uint64_t>(v->as_number());
    if (const JsonValue* v = frame.find("events"); v && v->is_number())
      row.events = static_cast<std::uint64_t>(v->as_number());
    if (const JsonValue* v = frame.find("sim_ms"); v && v->is_number())
      row.sim_ms = v->as_number();
    if (const JsonValue* v = frame.find("eta_ms"); v && v->is_number())
      row.eta_ms = v->as_number();
    if (const JsonValue* v = frame.find("final"); v && v->is_bool())
      row.final_frame = v->as_bool();
    row.updated = std::chrono::steady_clock::now();

    std::lock_guard<std::mutex> lock(mu_);
    jobs_[key] = std::move(row);
  }

  int fd_ = -1;
  std::thread reader_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> dead_{false};
  std::atomic<std::uint64_t> frames_{0};
  std::mutex mu_;
  std::map<std::string, JobRow> jobs_;
};

/// Prometheus text -> {name: value}. Histogram series keep their
/// suffixed names (_sum/_count/_bucket lines are skipped unless exact).
std::map<std::string, double> parse_scrape(const std::string& text) {
  std::map<std::string, double> out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(start, nl - start);
    start = nl + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    std::string name = line.substr(0, sp);
    if (name.find('{') != std::string::npos) continue;  // bucket series
    out[name] = std::atof(line.c_str() + sp + 1);
  }
  return out;
}

double get(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

std::string bar(double percent, int width) {
  if (percent < 0.0) return std::string(static_cast<std::size_t>(width), '.');
  const int filled = static_cast<int>(percent / 100.0 * width + 0.5);
  std::string out;
  for (int i = 0; i < width; ++i) out += i < filled ? '#' : '-';
  return out;
}

void render(const std::map<std::string, double>& now,
            const std::map<std::string, double>& prev, double dt_s,
            const std::vector<JobRow>& jobs, std::uint64_t frames,
            bool ansi) {
  auto rate = [&](const char* key) {
    return dt_s > 0.0 ? (get(now, key) - get(prev, key)) / dt_s : 0.0;
  };
  if (ansi) std::fputs("\x1b[H\x1b[2J", stdout);
  std::printf("raidsim_top -- what-if service\n");
  std::printf(
      "queue %3.0f  inflight %3.0f  | goodput %6.1f/s  shed %5.1f/s  "
      "deadline %5.1f/s\n",
      get(now, "raidsim_svc_queue_depth"), get(now, "raidsim_svc_inflight"),
      rate("raidsim_svc_jobs_ok_total"),
      rate("raidsim_svc_jobs_overloaded_total"),
      rate("raidsim_svc_jobs_deadline_total"));
  std::printf(
      "totals: ok %.0f (cached %.0f)  shed %.0f  failed %.0f  "
      "cancelled %.0f  deadline %.0f  flights %.0f\n",
      get(now, "raidsim_svc_jobs_ok_total"),
      get(now, "raidsim_svc_jobs_cached_total"),
      get(now, "raidsim_svc_jobs_overloaded_total"),
      get(now, "raidsim_svc_jobs_failed_total"),
      get(now, "raidsim_svc_jobs_cancelled_total"),
      get(now, "raidsim_svc_jobs_deadline_total"),
      get(now, "raidsim_svc_flight_dumps_total"));
  std::printf(
      "engine: %.0f runs / %.0f events   frames %llu\n\n",
      get(now, "raidsim_engine_runs_total"),
      get(now, "raidsim_engine_events_total"),
      static_cast<unsigned long long>(frames));

  if (jobs.empty()) {
    std::printf("(no running jobs)\n");
  } else {
    for (const JobRow& job : jobs) {
      std::string label = job.id.empty() ? "(anon)" : job.id;
      if (label.size() > 16) label = label.substr(0, 16);
      std::printf("%-16s [%s]", label.c_str(), bar(job.percent, 30).c_str());
      if (job.percent >= 0.0)
        std::printf(" %5.1f%%", job.percent);
      else
        std::printf("   ?  ");
      std::printf("  %10llu ev  sim %8.0f ms",
                  static_cast<unsigned long long>(job.events), job.sim_ms);
      if (job.final_frame)
        std::printf("  done");
      else if (job.eta_ms >= 0.0)
        std::printf("  eta %5.1f s", job.eta_ms / 1000.0);
      std::printf("\n");
    }
  }
  std::fflush(stdout);
}

void usage() {
  std::fprintf(stderr,
               "usage: raidsim_top --socket PATH [--interval-ms N] [--once]\n"
               "  --socket PATH    raidsim_serve AF_UNIX socket (required)\n"
               "  --interval-ms N  refresh period (default 500)\n"
               "  --once           one plain snapshot, then exit (for CI)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  double interval_ms = 500.0;
  bool once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "raidsim_top: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") socket_path = value();
    else if (arg == "--interval-ms")
      interval_ms =
          raidsim::parse_number_arg<double>("raidsim_top", arg, value());
    else if (arg == "--once") once = true;
    else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "raidsim_top: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    }
  }
  if (socket_path.empty()) {
    usage();
    return 2;
  }
  interval_ms = std::max(50.0, interval_ms);

  try {
    raidsim::svc::Client poller(socket_path);
    Firehose firehose(socket_path);

    auto scrape = [&poller]() {
      const JsonValue response =
          poller.request("{\"op\":\"metrics\",\"id\":\"top\"}");
      const JsonValue* text = response.find("metrics_text");
      if (text == nullptr || !text->is_string())
        throw std::runtime_error("raidsim_top: malformed metrics response");
      return parse_scrape(text->as_string());
    };

    std::map<std::string, double> prev = scrape();
    auto prev_at = std::chrono::steady_clock::now();
    for (;;) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          once ? std::min(interval_ms, 200.0) : interval_ms));
      const auto at = std::chrono::steady_clock::now();
      const std::map<std::string, double> now = scrape();
      const double dt_s =
          std::chrono::duration<double>(at - prev_at).count();
      render(now, prev, dt_s, firehose.jobs(), firehose.frames_seen(), !once);
      prev = now;
      prev_at = at;
      if (once) return 0;
      if (!firehose.alive()) {
        std::fprintf(stderr, "raidsim_top: server closed the firehose\n");
        return 0;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "raidsim_top: %s\n", e.what());
    return 1;
  }
}
