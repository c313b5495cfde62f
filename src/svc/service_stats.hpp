#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace raidsim::svc {

/// Lock-free service counters, exported by the `/stats` protocol op and
/// flushed to the log on drain. Every admission decision and terminal
/// job state increments exactly one counter, so
///   submitted == completed + rejected_overload + rejected_draining +
///                rejected_invalid
/// holds whenever the service is idle -- the overload drill asserts it.
struct ServiceStats {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed_ok{0};
  std::atomic<std::uint64_t> completed_cached{0};  // subset of completed_ok
  std::atomic<std::uint64_t> rejected_overload{0};
  std::atomic<std::uint64_t> rejected_draining{0};
  std::atomic<std::uint64_t> rejected_invalid{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  /// Jobs that ended on the stuck-job guard (`stuck_job_ms`).
  std::atomic<std::uint64_t> watchdog_kills{0};
  std::atomic<std::uint64_t> peak_queue_depth{0};

  void note_queue_depth(std::uint64_t depth) {
    std::uint64_t prev = peak_queue_depth.load(std::memory_order_relaxed);
    while (prev < depth && !peak_queue_depth.compare_exchange_weak(
                               prev, depth, std::memory_order_relaxed)) {
    }
  }

  /// Terminal completions of admitted jobs (every admitted job reaches
  /// exactly one of these).
  std::uint64_t terminal() const {
    return completed_ok.load() + failed.load() + cancelled.load() +
           deadline_expired.load();
  }

  std::string to_json(std::size_t queue_depth, std::size_t running,
                      std::size_t cache_size, std::uint64_t cache_hits,
                      std::uint64_t cache_misses,
                      std::uint64_t cache_evictions) const;
};

}  // namespace raidsim::svc
