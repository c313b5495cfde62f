// Differential and boundary tests for the calendar event kernel.
//
// The calendar queue's contract is exact (time, seq) execution order:
// ordering is decided solely by exact comparisons, never by bucket
// geometry. These tests drive it and the plain heap-backed reference
// queue (reference_event_queue.hpp) with identical operation streams —
// including cancel-heavy hedged-read patterns, run_until slices landing
// exactly on bucket and year edges, and far-future ladder jumps — and
// require identical observable behavior (execution order, clocks,
// counts, and exact pending()/empty()).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace raidsim {
namespace {

/// SplitMix64: tiny deterministic PRNG for the fuzz driver.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// One queue under the fuzz driver: execution log + live-id tracking.
template <typename Queue>
struct Harness {
  Queue eq;
  std::vector<int> order;       // tags in execution order
  std::vector<SimTime> times;   // times in execution order
  std::vector<EventId> live;    // ids believed pending (may be stale-free)

  void schedule(int tag, SimTime delay, int chain) {
    live.push_back(eq.schedule_in(delay, [this, tag, chain] {
      order.push_back(tag);
      times.push_back(eq.now());
      // Self-rescheduling chain: exercises inserts landing mid-dispatch
      // (including undercutting an active batch in run()/run_until()).
      if (chain > 0) {
        const SimTime d = (tag % 3 == 0) ? 0.0 : 0.125 * (tag % 7);
        schedule(tag + 1000000, d, chain - 1);
      }
    }));
  }
};

/// Drives the calendar and the reference with an identical randomized op
/// stream and checks every observable agrees at every step.
void differential_fuzz(std::uint64_t seed, int ops) {
  Rng rng(seed);
  Harness<EventQueue> cal;
  Harness<ReferenceEventQueue> ref;
  int tag = 0;

  for (int i = 0; i < ops; ++i) {
    const std::uint64_t pick = rng.below(100);
    if (pick < 45) {
      // Schedule: near-future band mostly, mid band sometimes, far
      // future (ladder territory) occasionally, huge rarely.
      double delay;
      const std::uint64_t band = rng.below(100);
      if (band < 60) {
        delay = rng.unit() * 8.0;
      } else if (band < 85) {
        delay = rng.unit() * 300.0;
      } else if (band < 97) {
        delay = 1000.0 + rng.unit() * 50000.0;
      } else {
        delay = 1e7 + rng.unit() * 1e9;
      }
      const int chain = static_cast<int>(rng.below(3));
      ++tag;
      cal.schedule(tag, delay, chain);
      ref.schedule(tag, delay, chain);
    } else if (pick < 65) {
      // Cancel a (possibly stale) remembered id; both must agree on the
      // outcome and on pending() afterwards.
      if (!cal.live.empty()) {
        const std::size_t j = rng.below(cal.live.size());
        ASSERT_EQ(cal.eq.cancel(cal.live[j]), ref.eq.cancel(ref.live[j]));
        cal.live.erase(cal.live.begin() + static_cast<std::ptrdiff_t>(j));
        ref.live.erase(ref.live.begin() + static_cast<std::ptrdiff_t>(j));
      }
    } else if (pick < 75) {
      ASSERT_EQ(cal.eq.step(), ref.eq.step());
    } else if (pick < 85) {
      const std::uint64_t limit = rng.below(64);
      ASSERT_EQ(cal.eq.run(limit), ref.eq.run(limit));
    } else {
      // run_until with deliberately edge-prone targets: multiples of the
      // initial bucket width land exactly on bucket boundaries.
      double dt;
      if (rng.below(2) == 0) {
        dt = static_cast<double>(rng.below(64)) *
             EventQueue::kInitialBucketWidthMs;
      } else {
        dt = rng.unit() * 40.0;
      }
      ASSERT_EQ(cal.eq.run_until(cal.eq.now() + dt),
                ref.eq.run_until(ref.eq.now() + dt));
    }
    ASSERT_EQ(cal.eq.now(), ref.eq.now()) << "op " << i;
    ASSERT_EQ(cal.eq.pending(), ref.eq.pending()) << "op " << i;
    ASSERT_EQ(cal.eq.empty(), ref.eq.empty()) << "op " << i;
    ASSERT_EQ(cal.eq.executed(), ref.eq.executed()) << "op " << i;
    ASSERT_EQ(cal.order.size(), ref.order.size()) << "op " << i;
    if (!cal.order.empty()) {
      ASSERT_EQ(cal.order.back(), ref.order.back()) << "op " << i;
    }
  }

  // Drain both completely and compare the full histories.
  cal.eq.run();
  ref.eq.run();
  ASSERT_EQ(cal.order, ref.order);
  ASSERT_EQ(cal.times, ref.times);
  ASSERT_EQ(cal.eq.now(), ref.eq.now());
  EXPECT_TRUE(cal.eq.empty());
  EXPECT_TRUE(ref.eq.empty());
}

TEST(CalendarQueue, DifferentialFuzzVsHeap) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    differential_fuzz(seed * 0x5eed, 4000);
}

TEST(CalendarQueue, DifferentialFuzzLongRun) {
  differential_fuzz(20260809, 20000);
}

// Hedged-read pattern: every request schedules a hedge and a deadline,
// and whichever "completes" first cancels the other two. The calendar
// must keep pending() exact under constant lazy deletion and never
// strand a live event.
TEST(CalendarQueue, CancelHeavyHedgedReadsKeepPendingExact) {
  EventQueue cal;
  ReferenceEventQueue ref;
  Rng rng(7);
  int cal_done = 0;
  int ref_done = 0;

  for (int round = 0; round < 200; ++round) {
    struct Trio {
      EventId a = 0, b = 0, c = 0;
    };
    std::vector<Trio> cal_ids(16), ref_ids(16);
    for (int r = 0; r < 16; ++r) {
      const double t0 = rng.unit() * 4.0;
      const double hedge = t0 + 2.0 + rng.unit();
      const double deadline = t0 + 30.0;
      auto arm = [](auto& eq, Trio& ids, double primary, double h,
                    double d, int* done) {
        ids.a = eq.schedule_in(primary, [&eq, &ids, done] {
          ++*done;
          eq.cancel(ids.b);
          eq.cancel(ids.c);
        });
        ids.b = eq.schedule_in(h, [&eq, &ids, done] {
          ++*done;
          eq.cancel(ids.a);
          eq.cancel(ids.c);
        });
        ids.c = eq.schedule_in(d, [&eq, &ids, done] {
          ++*done;
          eq.cancel(ids.a);
          eq.cancel(ids.b);
        });
      };
      arm(cal, cal_ids[static_cast<std::size_t>(r)], t0, hedge, deadline,
          &cal_done);
      arm(ref, ref_ids[static_cast<std::size_t>(r)], t0, hedge, deadline,
          &ref_done);
    }
    // Run partway (some trios resolved, some mid-flight), then drain.
    const double slice = cal.now() + 2.0;
    ASSERT_EQ(cal.run_until(slice), ref.run_until(slice));
    ASSERT_EQ(cal.pending(), ref.pending());
    ASSERT_EQ(cal.run(), ref.run());
    ASSERT_EQ(cal_done, ref_done);
    // Exactly one member of each trio fires; nothing may be stranded.
    ASSERT_EQ(cal_done, 16 * (round + 1));
    ASSERT_TRUE(cal.empty());
    ASSERT_EQ(cal.pending(), 0u);
  }
}

// Events placed exactly on bucket and year boundaries, with run_until
// targets exactly on those edges: boundary events must fire on the slice
// that includes their time, never one early or one late.
TEST(CalendarQueue, RunUntilAtExactBucketEdges) {
  EventQueue cal;
  ReferenceEventQueue ref;
  const double w = EventQueue::kInitialBucketWidthMs;
  const double year = w * static_cast<double>(EventQueue::kMinBuckets);
  std::vector<double> cal_fired, ref_fired;
  for (int i = 0; i < 200; ++i) {
    // On-edge, just-below, just-above, and year-edge times.
    const double base = static_cast<double>(i) * w;
    for (double t : {base, base + w * 0.5, base + w - 1e-9,
                     static_cast<double>(i) * year}) {
      cal.schedule_at(t,
                      [&cal_fired, &cal] { cal_fired.push_back(cal.now()); });
      ref.schedule_at(t,
                      [&ref_fired, &ref] { ref_fired.push_back(ref.now()); });
    }
  }
  // Advance in slices that land exactly on bucket edges.
  for (int edge = 1; edge <= 220; ++edge) {
    const double until = static_cast<double>(edge) * w;
    ASSERT_EQ(cal.run_until(until), ref.run_until(until)) << edge;
    ASSERT_EQ(cal.now(), until);
    ASSERT_EQ(cal_fired, ref_fired) << edge;
    // Everything due has fired: nothing pending at or before `until`.
    for (double t : cal_fired) ASSERT_LE(t, until);
  }
  ASSERT_EQ(cal.run(), ref.run());
  ASSERT_EQ(cal_fired, ref_fired);
  ASSERT_TRUE(cal.empty());
}

// Far-future scheduling exercises the ladder and the year jump: after the
// near-future population drains, the calendar must jump straight to the
// ladder minimum (not walk year by year) and keep ordering exact.
TEST(CalendarQueue, LadderJumpAcrossHugeGaps) {
  EventQueue cal;
  ReferenceEventQueue ref;
  std::vector<int> cal_order, ref_order;
  // Clusters separated by gaps spanning millions of initial years.
  const double gaps[] = {0.0, 1e3, 1e6, 1e9, 1e12};
  int tag = 0;
  for (double gap : gaps) {
    for (int i = 0; i < 10; ++i) {
      const int t = tag++;
      const double at = gap + 0.25 * static_cast<double>(i);
      cal.schedule_at(at, [&cal_order, t] { cal_order.push_back(t); });
      ref.schedule_at(at, [&ref_order, t] { ref_order.push_back(t); });
    }
  }
  ASSERT_EQ(cal.run(), ref.run());
  ASSERT_EQ(cal_order, ref_order);
  ASSERT_EQ(cal.now(), ref.now());
  ASSERT_EQ(cal_order.size(), 50u);
}

// A callback that schedules earlier than the rest of an in-flight batch
// must preempt it (dirty-batch spill path in run()).
template <typename Queue>
std::vector<std::string> mid_batch_insert_order() {
  Queue eq;
  std::vector<std::string> order;
  // Three events in one bucket; the first schedules a fourth between
  // the second and third.
  eq.schedule_at(0.10, [&] {
    order.push_back("a");
    eq.schedule_at(0.25, [&] { order.push_back("inserted"); });
  });
  eq.schedule_at(0.20, [&] { order.push_back("b"); });
  eq.schedule_at(0.30, [&] { order.push_back("c"); });
  eq.run();
  return order;
}

TEST(CalendarQueue, MidBatchInsertPreemptsLaterBatchEntries) {
  const std::vector<std::string> expected{"a", "b", "inserted", "c"};
  EXPECT_EQ(mid_batch_insert_order<EventQueue>(), expected);
  EXPECT_EQ(mid_batch_insert_order<ReferenceEventQueue>(), expected);
}

// Equal-time events keep schedule-order FIFO even when one of them is
// scheduled from inside the dispatch of the same instant.
template <typename Queue>
std::vector<int> equal_time_order() {
  Queue eq;
  std::vector<int> order;
  eq.schedule_at(1.0, [&] {
    order.push_back(0);
    eq.schedule_at(1.0, [&] { order.push_back(2); });  // same instant
  });
  eq.schedule_at(1.0, [&] { order.push_back(1); });
  eq.run();
  return order;
}

TEST(CalendarQueue, EqualTimeFifoAcrossMidDispatchInsert) {
  const std::vector<int> expected{0, 1, 2};
  EXPECT_EQ(equal_time_order<EventQueue>(), expected);
  EXPECT_EQ(equal_time_order<ReferenceEventQueue>(), expected);
}

}  // namespace
}  // namespace raidsim
