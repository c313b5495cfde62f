#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

namespace raidsim {

/// Why a cooperative cancellation was requested. The first request wins;
/// later requests with a different reason are ignored, so the reported
/// reason is always the one that actually stopped the run.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kDeadline,   // per-job deadline expired
  kWatchdog,   // supervisor declared the job stuck
  kShutdown,   // service drain cancelled in-flight work
  kClient,     // explicit caller request
};

const char* to_string(CancelReason reason);

/// Cooperative cancellation flag shared between a controller thread (the
/// service supervisor, a test harness) and a running simulation. The
/// simulation polls `cancelled()` at event-batch boundaries -- a relaxed
/// atomic load, so the check costs nothing on the replay hot path -- and
/// unwinds with CancelledError when it fires. Tokens are reusable across
/// sequential runs via reset(), but must outlive any run holding them.
class CancelToken {
 public:
  /// Request cancellation. Only the first reason sticks.
  void cancel(CancelReason reason = CancelReason::kClient) {
    std::uint8_t expected = 0;
    reason_.compare_exchange_strong(expected,
                                    static_cast<std::uint8_t>(reason));
  }

  bool cancelled() const {
    return reason_.load(std::memory_order_relaxed) != 0;
  }

  CancelReason reason() const {
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  /// Re-arm for another run. Only safe between runs.
  void reset() { reason_.store(0, std::memory_order_release); }

 private:
  std::atomic<std::uint8_t> reason_{0};
};

/// Thrown out of Simulator::run when the attached token
/// fires. Partially-simulated state is discarded by normal destruction;
/// no metrics are produced.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(std::string("simulation cancelled: ") +
                           to_string(reason)),
        reason_(reason) {}

  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

inline const char* to_string(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone: return "none";
    case CancelReason::kDeadline: return "deadline";
    case CancelReason::kWatchdog: return "watchdog";
    case CancelReason::kShutdown: return "shutdown";
    case CancelReason::kClient: return "client";
  }
  return "unknown";
}

}  // namespace raidsim
