#pragma once

// A deliberately plain event queue, used as the differential oracle for
// EventQueue: a std::priority_queue (binary heap) ordered by exact
// (time, seq), callbacks in a hash map keyed by id, cancellation by
// erasing the callback (the heap entry is skipped when it surfaces). No
// buckets, no batching, no slot recycling. It exposes the EventQueue
// surface the tests drive, with the same semantics: past times clamp to
// now(), equal times run in schedule order, and run_until(t) executes
// events at exactly t and then advances now() to t.

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>

#include "sim/event_queue.hpp"

namespace raidsim {

class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }
  bool empty() const { return callbacks_.empty(); }
  std::size_t pending() const { return callbacks_.size(); }
  std::uint64_t executed() const { return executed_; }

  /// Ids double as the schedule sequence number, so they are never zero
  /// and never repeat.
  EventId schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    const EventId id = ++last_id_;
    heap_.push(Entry{when, id});
    callbacks_.emplace(id, std::move(cb));
    return id;
  }

  EventId schedule_in(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  bool cancel(EventId id) { return callbacks_.erase(id) > 0; }

  bool step() {
    drop_cancelled();
    if (heap_.empty()) return false;
    const Entry e = heap_.top();
    heap_.pop();
    auto it = callbacks_.find(e.id);
    Callback cb = std::move(it->second);
    callbacks_.erase(it);
    now_ = e.time;
    ++executed_;
    cb();
    return true;
  }

  std::uint64_t run(std::uint64_t limit = 0) {
    std::uint64_t count = 0;
    while ((limit == 0 || count < limit) && step()) ++count;
    return count;
  }

  std::uint64_t run_until(SimTime until) {
    std::uint64_t count = 0;
    for (;;) {
      drop_cancelled();
      if (heap_.empty() || heap_.top().time > until) break;
      step();
      ++count;
    }
    if (now_ < until) now_ = until;
    return count;
  }

 private:
  struct Entry {
    SimTime time;
    EventId id;
    // std::priority_queue is a max-heap: "less" means "runs later".
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  void drop_cancelled() {
    while (!heap_.empty() && !callbacks_.contains(heap_.top().id))
      heap_.pop();
  }

  SimTime now_ = 0.0;
  EventId last_id_ = 0;
  std::uint64_t executed_ = 0;
  std::priority_queue<Entry> heap_;
  std::unordered_map<EventId, Callback> callbacks_;
};

}  // namespace raidsim
