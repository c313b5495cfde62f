#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace raidsim {

/// Fixed-capacity overwrite-oldest ring. Backs the request tracer and the
/// time-series sampler so an arbitrarily long run keeps the newest
/// `capacity` elements in bounded memory. Index 0 is always the oldest
/// retained element.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity)
      : capacity_(capacity ? capacity : 1) {}

  void push(T value) {
    ++pushed_;
    if (data_.size() < capacity_) {
      data_.push_back(std::move(value));
      return;
    }
    data_[head_] = std::move(value);
    head_ = (head_ + 1) % capacity_;
  }

  /// Allocate room for the first `n` elements (at most capacity()) up
  /// front, so early pushes do not regrow the storage.
  void reserve(std::size_t n) { data_.reserve(n < capacity_ ? n : capacity_); }

  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Total elements ever pushed (size() once the ring has wrapped equals
  /// capacity(); pushed() keeps counting).
  std::uint64_t pushed() const { return pushed_; }
  bool wrapped() const { return pushed_ > static_cast<std::uint64_t>(size()); }

  const T& operator[](std::size_t i) const {
    return data_[(head_ + i) % data_.size()];
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::uint64_t pushed_ = 0;
  std::vector<T> data_;
};

}  // namespace raidsim
