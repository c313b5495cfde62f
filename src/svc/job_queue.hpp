#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace raidsim::svc {

/// Bounded MPMC queue -- the admission-control chokepoint of the
/// daemon. Producers never block: try_push either accepts the item or
/// returns false immediately (a typed `overloaded` rejection upstream).
/// Consumers block in pop() until an item arrives or the queue is
/// closed. Closing wakes every consumer; a closed queue rejects pushes
/// and drains remaining items before pop() starts returning nullopt.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Non-blocking admission: false when full or closed.
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed AND empty.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Stop admitting; consumers drain the backlog then see nullopt.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::size_t capacity_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace raidsim::svc
