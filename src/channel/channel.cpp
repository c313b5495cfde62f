#include "channel/channel.hpp"

#include <cassert>
#include <memory>
#include <stdexcept>
#include <utility>

#include "util/arena.hpp"

namespace raidsim {

Channel::Channel(EventQueue& eq, double mb_per_second) : eq_(eq) {
  if (mb_per_second <= 0.0)
    throw std::invalid_argument("Channel: rate must be positive");
  // ms per byte = 1000 / (MB/s * 1e6) = 1e-3 / MB/s.
  ms_per_byte_ = 1e-3 / mb_per_second;
}

double Channel::transfer_ms(std::int64_t bytes) const {
  assert(bytes >= 0);
  return static_cast<double>(bytes) * ms_per_byte_;
}

void Channel::transfer(std::int64_t bytes,
                       Completion on_complete) {
  queue_.push_back(Pending{bytes, std::move(on_complete)});
  if (!busy_) start_next();
}

void Channel::start_next() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Pending p = std::move(queue_.front());
  queue_.pop_front();
  const double dur = transfer_ms(p.bytes);
  busy_ms_ += dur;
  ++transfers_;
  auto cb = make_op<Pending>(eq_.op_arena(), std::move(p));
  eq_.schedule_in(dur, [this, cb] {
    if (cb->on_complete) cb->on_complete(eq_.now());
    start_next();
  });
}

BufferPool::BufferPool(int capacity) : capacity_(capacity), available_(capacity) {
  if (capacity <= 0) throw std::invalid_argument("BufferPool: capacity <= 0");
}

void BufferPool::acquire(EventQueue::Callback grant) {
  if (available_ > 0) {
    --available_;
    grant();
  } else {
    ++stalls_;
    waiters_.push_back(std::move(grant));
  }
}

void BufferPool::release() {
  if (!waiters_.empty()) {
    auto grant = std::move(waiters_.front());
    waiters_.pop_front();
    grant();  // buffer passes directly to the waiter
  } else {
    ++available_;
    assert(available_ <= capacity_);
  }
}

}  // namespace raidsim
