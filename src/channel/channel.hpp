#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/arena.hpp"

namespace raidsim {

/// FIFO model of the host-to-controller channel (Table 1: 10 MB/s).
/// Each array has one channel; all user data crossing the host boundary
/// serialises on it. Parity traffic stays inside the controller and does
/// not use the channel.
class Channel {
 public:
  Channel(EventQueue& eq, double mb_per_second);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Queue a transfer of `bytes`; `on_complete` fires when the last byte
  /// has crossed the channel.
  void transfer(std::int64_t bytes, Completion on_complete);

  /// Transfer time for `bytes` with no queueing.
  double transfer_ms(std::int64_t bytes) const;

  std::uint64_t transfers() const { return transfers_; }
  /// A transfer is in flight (queued ones start as soon as it ends).
  bool busy() const { return busy_; }
  double busy_ms() const { return busy_ms_; }
  double utilization(SimTime elapsed) const {
    return elapsed > 0.0 ? busy_ms_ / elapsed : 0.0;
  }
  std::size_t queue_length() const { return queue_.size() - head_; }

 private:
  /// A queued or in-flight transfer, built once in the engine's op arena
  /// by transfer() and passed by handle from then on.
  struct Pending {
    Pending(std::int64_t b, Completion&& done)
        : bytes(b), on_complete(std::move(done)) {}
    std::int64_t bytes;
    Completion on_complete;
  };

  void start_next();

  EventQueue& eq_;
  double ms_per_byte_;
  bool busy_ = false;
  /// FIFO of handles: entries before head_ have been started. The vector
  /// is rewound when it drains and compacted when the started prefix
  /// dominates, so a steady transfer stream reuses its capacity.
  std::vector<OpRef<Pending>> queue_;
  std::size_t head_ = 0;
  std::uint64_t transfers_ = 0;
  double busy_ms_ = 0.0;
};

/// Counting pool of controller track buffers (Section 3.4: five per
/// disk). A disk transfer must hold a buffer from start to drain; if the
/// pool is exhausted the acquisition queues FIFO.
class BufferPool {
 public:
  explicit BufferPool(int capacity);

  /// Acquire one buffer; `grant` runs immediately when a buffer is free,
  /// otherwise when one is released (same simulation time as release).
  void acquire(EventQueue::Callback grant);

  /// Return one buffer to the pool, waking the oldest waiter if any.
  void release();

  int capacity() const { return capacity_; }
  int available() const { return available_; }
  std::size_t waiting() const { return waiters_.size(); }
  /// Total acquisitions that had to wait (starvation diagnostics).
  std::uint64_t stalls() const { return stalls_; }

 private:
  int capacity_;
  int available_;
  std::deque<EventQueue::Callback> waiters_;
  std::uint64_t stalls_ = 0;
};

}  // namespace raidsim
