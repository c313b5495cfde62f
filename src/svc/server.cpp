#include "svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>

#include "obs/metrics_registry.hpp"
#include "svc/job_codec.hpp"

namespace raidsim::svc {

struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> open{true};
  /// Set once when this connection subscribes; job responses are then
  /// routed through the subscriber's ordered queue (deliver_response)
  /// so frames and the terminal response keep their wire order.
  std::mutex sub_mu;
  std::weak_ptr<Subscriber> sub;

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Serialized, full write of one response line. Returns false when the
  /// peer is gone (the connection is then marked closed; completions for
  /// in-flight jobs become no-ops rather than errors).
  bool write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!open.load(std::memory_order_acquire)) return false;
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        open.store(false, std::memory_order_release);
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  void close_now() {
    open.store(false, std::memory_order_release);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
};

/// One progress subscriber: a bounded queue between the engine threads
/// (producers, via broadcast_progress) and a dedicated drain thread
/// (the only place this subscriber's socket is written once frames can
/// flow). Producers never block on subscriber I/O: when the queue holds
/// kMaxBufferedFrames progress frames the oldest frame is dropped --
/// the newest frame is always the most useful one -- so a SIGSTOPped or
/// slow reader costs itself frames, never simulation throughput. Job
/// responses on a subscribed connection ride the same queue (marked
/// non-droppable) so a job's final frame reaches the wire before its
/// terminal response.
struct Server::Subscriber {
  static constexpr std::size_t kMaxBufferedFrames = 256;

  struct Item {
    std::string line;
    bool droppable = false;  // true for progress frames only
  };

  Subscriber(std::shared_ptr<Connection> c, Counter& d)
      : conn(std::move(c)), drops(d) {}

  std::shared_ptr<Connection> conn;
  Counter& drops;  // the server's raidsim_svc_progress_drops_total
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Item> queue;
  std::size_t buffered_frames = 0;  // droppable items currently queued
  bool closed = false;
  /// Drain thread exited; the entry can be reaped (join is immediate).
  std::atomic<bool> done{false};
  std::thread thread;

  /// Enqueue under mu; returns false when the drain thread is gone (the
  /// caller should fall back to a direct write or drop the frame).
  bool enqueue(std::string line, bool droppable) {
    std::lock_guard<std::mutex> lock(mu);
    if (closed) return false;
    if (droppable && buffered_frames >= kMaxBufferedFrames) {
      const auto victim =
          std::find_if(queue.begin(), queue.end(),
                       [](const Item& item) { return item.droppable; });
      queue.erase(victim);  // buffered_frames > 0 => a frame exists
      --buffered_frames;
      drops.add(1);
    }
    if (droppable) ++buffered_frames;
    queue.push_back(Item{std::move(line), droppable});
    cv.notify_one();
    return true;
  }
};

Server::Server(Options options) : opts_(std::move(options)) {
  if (opts_.socket_path.empty())
    throw std::invalid_argument("server: socket_path is required");
  if (opts_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw std::invalid_argument("server: socket_path too long");

  if (::pipe(wake_pipe_) != 0)
    throw std::runtime_error("server: pipe() failed");

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("server: socket() failed");

  ::unlink(opts_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    throw std::runtime_error("server: bind(" + opts_.socket_path +
                             ") failed: " + std::strerror(errno));
  if (::listen(listen_fd_, 64) != 0)
    throw std::runtime_error("server: listen() failed");

  supervisor_ = std::make_unique<Supervisor>(opts_.supervisor);
  progress_drops_ = &supervisor_->registry().counter(
      "raidsim_svc_progress_drops_total",
      "Progress frames dropped because a subscriber's buffer was full");
}

Server::~Server() {
  stop();
  shutdown_everything();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  ::unlink(opts_.socket_path.c_str());
}

void Server::stop() {
  if (stopping_.exchange(true)) return;
  const char byte = 'q';
  // Best effort; async-signal-safe.
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::run() {
  accept_loop();
  shutdown_everything();
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
      conn_threads_.emplace_back(
          [this, conn] { serve_connection(conn); });
    }
  }
}

void Server::serve_connection(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  while (conn->open.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // peer closed
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (buffer.size() > opts_.max_line_bytes) {
      conn->write_line(encode_error_response(
          "", JobStatus::kInvalid, "request line too long"));
      break;
    }
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(conn, line);
    }
    buffer.erase(0, start);
  }
  conn->close_now();
}

void Server::handle_line(const std::shared_ptr<Connection>& conn,
                         const std::string& line) {
  JsonValue request;
  std::string id;
  try {
    request = json_parse(line);
    if (const JsonValue* idv = request.find("id");
        idv != nullptr && idv->is_string())
      id = idv->as_string();
    const JsonValue* opv = request.find("op");
    const std::string op =
        (opv != nullptr && opv->is_string()) ? opv->as_string() : "";

    if (op == "ping") {
      conn->write_line("{\"id\":" + json_quote(id) +
                       ",\"status\":\"ok\",\"op\":\"ping\"}\n");
      return;
    }
    if (op == "stats") {
      conn->write_line("{\"id\":" + json_quote(id) +
                       ",\"status\":\"ok\",\"stats\":" +
                       supervisor_->stats_json() + "}\n");
      return;
    }
    if (op == "metrics") {
      conn->write_line("{\"id\":" + json_quote(id) +
                       ",\"status\":\"ok\",\"metrics_text\":" +
                       json_quote(MetricsRegistry::instance().scrape() +
                                  supervisor_->registry().scrape()) +
                       "}\n");
      return;
    }
    if (op == "subscribe") {
      auto sub = std::make_shared<Subscriber>(conn, *progress_drops_);
      sub->thread = std::thread([this, sub] { drain_subscriber(sub); });
      {
        std::lock_guard<std::mutex> lock(conn->sub_mu);
        conn->sub = sub;
      }
      {
        std::lock_guard<std::mutex> lock(subs_mu_);
        subs_.push_back(sub);
      }
      conn->write_line("{\"id\":" + json_quote(id) +
                       ",\"status\":\"ok\",\"op\":\"subscribe\"}\n");
      return;
    }
    if (op == "drain") {
      conn->write_line("{\"id\":" + json_quote(id) +
                       ",\"status\":\"ok\",\"op\":\"drain\"}\n");
      stop();
      return;
    }
    if (op != "run")
      throw std::invalid_argument("unknown op '" + op + "'");

    JobRequest job;
    try {
      job = decode_job_request(request);
    } catch (const std::exception& e) {
      // Counted like a submit() whose config does not validate.
      supervisor_->reject_invalid(e.what(), [&](const JobResult& result) {
        conn->write_line(encode_error_response(id, result.status, result.error));
      });
      return;
    }
    if (job.id.empty()) job.id = id;
    const std::string job_id = job.id;
    supervisor_->submit(
        std::move(job),
        [this, conn, job_id](const JobResult& result) {
          deliver_response(conn, encode_job_response(result, job_id));
        },
        [this](const JobProgress& progress) { broadcast_progress(progress); });
  } catch (const std::exception& e) {
    conn->write_line(encode_error_response(id, JobStatus::kInvalid, e.what()));
  }
}

void Server::broadcast_progress(const JobProgress& progress) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  // Reap subscribers whose drain thread already exited (peer gone).
  subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                             [](const std::shared_ptr<Subscriber>& sub) {
                               if (!sub->done.load(std::memory_order_acquire))
                                 return false;
                               if (sub->thread.joinable()) sub->thread.join();
                               return true;
                             }),
              subs_.end());
  if (subs_.empty()) return;
  const std::string line = encode_progress_frame(progress);
  for (auto& sub : subs_) sub->enqueue(line, /*droppable=*/true);
}

void Server::deliver_response(const std::shared_ptr<Connection>& conn,
                              std::string line) {
  // A subscribed connection's job responses go through its subscriber
  // queue: the job's final progress frame was enqueued before this
  // completion fired, so queue order is wire order. Everyone else gets
  // the direct (serialized, blocking) write as before.
  std::shared_ptr<Subscriber> sub;
  {
    std::lock_guard<std::mutex> lock(conn->sub_mu);
    sub = conn->sub.lock();
  }
  if (sub != nullptr && sub->enqueue(line, /*droppable=*/false)) return;
  conn->write_line(line);
}

void Server::drain_subscriber(const std::shared_ptr<Subscriber>& sub) {
  for (;;) {
    Subscriber::Item item;
    {
      std::unique_lock<std::mutex> lock(sub->mu);
      // Timed wait so a subscriber whose peer vanished while idle (no
      // frames flowing) is noticed and reaped instead of pinning the
      // connection until shutdown.
      while (!sub->closed && sub->queue.empty() &&
             sub->conn->open.load(std::memory_order_acquire))
        sub->cv.wait_for(lock, std::chrono::milliseconds(100));
      if (sub->queue.empty()) break;  // closed/dead and fully flushed
      item = std::move(sub->queue.front());
      sub->queue.pop_front();
      if (item.droppable) --sub->buffered_frames;
    }
    // Blocking is fine here: this thread serves exactly one subscriber,
    // and close_now()'s shutdown(2) unwedges a send stuck on a full
    // socket buffer.
    if (!sub->conn->write_line(item.line)) break;
  }
  {
    std::lock_guard<std::mutex> lock(sub->mu);
    sub->closed = true;
    sub->queue.clear();
    sub->buffered_frames = 0;
  }
  sub->done.store(true, std::memory_order_release);
}

void Server::shutdown_everything() {
  // Order matters: drain first so every in-flight completion writes its
  // response while connections are still open, THEN close connections.
  if (supervisor_) {
    supervisor_->drain();
    if (opts_.log_final_stats && !final_stats_logged_.exchange(true))
      std::fprintf(stderr, "raidsim_serve: final stats %s\n",
                   supervisor_->stats_json().c_str());
  }
  // Subscriber queues may still hold responses enqueued by the drain
  // above. Close the queues (drain threads flush what is buffered, then
  // exit) and give them a bounded grace period BEFORE closing sockets,
  // so a healthy subscriber receives every terminal response while a
  // wedged one cannot hang shutdown.
  auto close_subscribers = [](std::vector<std::shared_ptr<Subscriber>>& subs) {
    for (auto& sub : subs) {
      {
        std::lock_guard<std::mutex> lock(sub->mu);
        sub->closed = true;
      }
      sub->cv.notify_all();
    }
  };
  std::vector<std::shared_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs.swap(subs_);
  }
  close_subscribers(subs);
  const auto flush_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (auto& sub : subs)
    while (!sub->done.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < flush_deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
    threads.swap(conn_threads_);
  }
  // close_now() unwedges any drain thread still stuck in send().
  for (auto& conn : conns) conn->close_now();
  for (auto& t : threads) t.join();

  // Connection threads are joined, so no further subscriber can appear;
  // sweep any that subscribed after the first swap, then join them all.
  std::vector<std::shared_ptr<Subscriber>> stragglers;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    stragglers.swap(subs_);
  }
  close_subscribers(stragglers);
  subs.insert(subs.end(), stragglers.begin(), stragglers.end());
  for (auto& sub : subs)
    if (sub->thread.joinable()) sub->thread.join();
}

}  // namespace raidsim::svc
