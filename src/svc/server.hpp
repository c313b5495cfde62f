#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/supervisor.hpp"

namespace raidsim::svc {

/// Newline-delimited-JSON what-if daemon over a local (AF_UNIX) stream
/// socket. One line in = one request; one line out = one typed response.
/// Requests on one connection may be pipelined; `run` responses come
/// back in completion order, matched by the client-supplied `id`.
///
/// Ops:
///   {"op":"ping"}                    -> {"status":"ok","op":"ping"}
///   {"op":"stats"}                   -> {"status":"ok","stats":{...}}
///   {"op":"metrics"}                 -> {"status":"ok","metrics_text":"..."}
///                                       (Prometheus text exposition: the
///                                       process registry, then the
///                                       supervisor's raidsim_svc_* one)
///   {"op":"subscribe"}               -> ack, then this connection also
///                                       receives every job's progress
///                                       frames ({"type":"progress",...})
///                                       interleaved with its responses.
///                                       Delivery is best-effort: a
///                                       reader that falls behind loses
///                                       oldest frames first and can
///                                       never stall a simulation.
///   {"op":"drain"}                   -> ack, then graceful shutdown
///   {"op":"run","config":{...},...}  -> job response (svc/job_codec.hpp);
///                                       progress frames stream to
///                                       subscribers while it runs
///
/// Shutdown (drain op, stop() from a signal handler, or destruction)
/// always: stops admitting (late jobs get typed `draining` responses),
/// drains the supervisor inside its budget, flushes final stats to
/// stderr, then closes connections and the socket.
class Server {
 public:
  struct Options {
    std::string socket_path;
    Supervisor::Options supervisor;
    /// Protocol lines above this are rejected (typed invalid), the
    /// connection dropped -- hostile input cannot balloon memory.
    std::size_t max_line_bytes = 1u << 20;
    /// Print final stats JSON to stderr on shutdown.
    bool log_final_stats = true;
  };

  explicit Server(Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Serve until stop() or a drain request. Blocks the calling thread.
  void run();

  /// Request graceful shutdown. Async-signal-safe (one write to a
  /// self-pipe); callable from a SIGTERM handler.
  void stop();

  const std::string& socket_path() const { return opts_.socket_path; }
  Supervisor& supervisor() { return *supervisor_; }

 private:
  struct Connection;
  struct Subscriber;

  void accept_loop();
  void serve_connection(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn,
                   const std::string& line);
  /// Fan one encoded progress line out to every live subscriber. Called
  /// from worker/shard threads, so it must never block on subscriber
  /// I/O: it only appends to each subscriber's bounded frame buffer
  /// (dropping the oldest frame when full) and wakes that subscriber's
  /// drain thread, which does the actual blocking writes.
  void broadcast_progress(const JobProgress& progress);
  /// Deliver a job's terminal response. Subscribed connections get it
  /// through their subscriber queue (non-droppable, behind any already
  /// queued frames -- notably the job's final frame) so queue order is
  /// wire order; everyone else gets the direct serialized write.
  void deliver_response(const std::shared_ptr<Connection>& conn,
                        std::string line);
  /// Per-subscriber writer loop: pops buffered frames and writes them to
  /// the socket. A stalled or vanished subscriber blocks only this
  /// thread; its buffer overflows (frames drop) and the engines run on.
  void drain_subscriber(const std::shared_ptr<Subscriber>& sub);
  void shutdown_everything();

  Options opts_;
  std::unique_ptr<Supervisor> supervisor_;
  Counter* progress_drops_ = nullptr;  // in the supervisor's registry
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> final_stats_logged_{false};

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;

  /// Progress firehose: one buffered writer per subscriber so a slow
  /// reader can never stall the simulation threads. Finished entries
  /// are reaped on each broadcast; stragglers are joined at shutdown.
  std::mutex subs_mu_;
  std::vector<std::shared_ptr<Subscriber>> subs_;
};

}  // namespace raidsim::svc
