#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace raidsim {

/// Why a cooperative cancellation was requested. The first request wins;
/// later requests with a different reason are ignored, so the reported
/// reason is always the one that actually stopped the run.
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kDeadline,   // per-job deadline expired
  kWatchdog,   // the job ran past the stuck-job limit
  kShutdown,   // service drain cancelled in-flight work
  kClient,     // explicit caller request
};

const char* to_string(CancelReason reason);

/// Cooperative cancellation flag shared between a controller thread (the
/// service supervisor, a test harness) and a running simulation. It
/// fires at once on cancel(), or once the time given to expire_at() has
/// passed. The simulation polls `cancelled()` at event-batch boundaries
/// -- a relaxed atomic load, plus a clock read while an expiry is set,
/// so the check costs nothing on the replay hot path -- and unwinds with
/// CancelledError when it fires. Tokens are reusable across sequential
/// runs via reset(), but must outlive any run holding them.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Request cancellation now. Only the first reason sticks.
  void cancel(CancelReason reason = CancelReason::kClient) { latch(reason); }

  /// Request cancellation with `reason` (not kNone) once `when` has
  /// passed. The earliest expiry wins; a later one is ignored.
  void expire_at(Clock::time_point when, CancelReason reason) {
    const std::uint64_t expiry = pack(when, reason);
    std::uint64_t current = expiry_.load(std::memory_order_relaxed);
    while (expiry < current &&
           !expiry_.compare_exchange_weak(current, expiry,
                                          std::memory_order_relaxed)) {
    }
  }

  /// True once cancel() was called or the expiry has passed. Whichever
  /// is seen first latches its reason.
  bool cancelled() const {
    if (reason_.load(std::memory_order_relaxed) != 0) return true;
    const std::uint64_t expiry = expiry_.load(std::memory_order_relaxed);
    if (expiry == kNever ||
        static_cast<std::uint64_t>(Clock::now().time_since_epoch().count()) <
            (expiry >> kReasonBits))
      return false;
    latch(static_cast<CancelReason>(expiry & kReasonMask));
    return true;
  }

  CancelReason reason() const {
    cancelled();
    return static_cast<CancelReason>(reason_.load(std::memory_order_acquire));
  }

  /// Re-arm for another run: no reason, no expiry. Only safe between runs.
  void reset() {
    reason_.store(0, std::memory_order_release);
    expiry_.store(kNever, std::memory_order_release);
  }

 private:
  // An expiry packs the clock's tick count above the reason, so one
  // atomic carries both and an earlier time compares lower.
  static constexpr int kReasonBits = 3;
  static constexpr std::uint64_t kReasonMask = (1u << kReasonBits) - 1;
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  static_assert(static_cast<std::uint64_t>(CancelReason::kClient) <=
                kReasonMask);

  static std::uint64_t pack(Clock::time_point when, CancelReason reason) {
    const auto ticks = when.time_since_epoch().count();
    const std::uint64_t clamped = std::min<std::uint64_t>(
        ticks < 0 ? 0 : static_cast<std::uint64_t>(ticks),
        (kNever >> kReasonBits) - 1);
    return clamped << kReasonBits | static_cast<std::uint64_t>(reason);
  }

  void latch(CancelReason reason) const {
    std::uint8_t expected = 0;
    reason_.compare_exchange_strong(expected,
                                    static_cast<std::uint8_t>(reason));
  }

  mutable std::atomic<std::uint8_t> reason_{0};
  std::atomic<std::uint64_t> expiry_{kNever};
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
