// Regression suite for the event kernel's slot machinery: FIFO tie-break
// determinism under slot reuse, cancel-then-reschedule id semantics,
// run_until boundary behaviour, and a randomized differential test
// against the plain reference queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace raidsim {
namespace {

TEST(EventQueueFastPath, IdsAreNeverZeroAndNeverRepeat) {
  EventQueue eq;
  std::vector<EventId> ids;
  // Churn through cancels and executions so slots are heavily reused.
  for (int round = 0; round < 50; ++round) {
    const EventId a = eq.schedule_at(round, [] {});
    const EventId b = eq.schedule_at(round, [] {});
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    ids.push_back(a);
    ids.push_back(b);
    eq.cancel(a);
    eq.step();
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

TEST(EventQueueFastPath, CancelThenRescheduleReusesSlotSafely) {
  EventQueue eq;
  bool first_ran = false;
  bool second_ran = false;
  const EventId first = eq.schedule_at(1.0, [&] { first_ran = true; });
  ASSERT_TRUE(eq.cancel(first));
  // The replacement most likely occupies the recycled slot; the stale id
  // must keep referring to the dead event, not the new occupant.
  const EventId second = eq.schedule_at(1.0, [&] { second_ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(eq.cancel(first));
  eq.run();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
}

TEST(EventQueueFastPath, StaleIdAfterExecutionCannotCancelNewOccupant) {
  EventQueue eq;
  const EventId first = eq.schedule_at(1.0, [] {});
  eq.run();
  bool ran = false;
  eq.schedule_at(2.0, [&] { ran = true; });
  EXPECT_FALSE(eq.cancel(first));  // executed id, slot since reused
  eq.run();
  EXPECT_TRUE(ran);
}

TEST(EventQueueFastPath, FifoTieBreakSurvivesSlotReuse) {
  EventQueue eq;
  std::vector<int> order;
  // Fill and drain once so the free list is primed and later schedules
  // reuse slots out of address order.
  for (int i = 0; i < 8; ++i) eq.schedule_at(0.0, [] {});
  eq.run();
  for (int i = 0; i < 32; ++i)
    eq.schedule_at(5.0, [&order, i] { order.push_back(i); });
  eq.run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueFastPath, RunUntilExecutesBoundaryAndAdvancesClock) {
  EventQueue eq;
  int at_boundary = 0;
  int beyond = 0;
  eq.schedule_at(2.0, [&] { ++at_boundary; });
  eq.schedule_at(2.0, [&] { ++at_boundary; });
  eq.schedule_at(2.0 + 1e-9, [&] { ++beyond; });
  EXPECT_EQ(eq.run_until(2.0), 2u);
  EXPECT_EQ(at_boundary, 2);
  EXPECT_EQ(beyond, 0);
  EXPECT_EQ(eq.now(), 2.0);
  EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueueFastPath, RunUntilOnEmptyQueueStillAdvances) {
  EventQueue eq;
  EXPECT_EQ(eq.run_until(7.5), 0u);
  EXPECT_EQ(eq.now(), 7.5);
}

TEST(EventQueueFastPath, HeavyCancelKeepsPendingExact) {
  EventQueue eq;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(eq.schedule_at(i, [] {}));
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(eq.cancel(ids[i]));
  EXPECT_EQ(eq.pending(), 50u);
  EXPECT_EQ(eq.run(), 50u);
  EXPECT_TRUE(eq.empty());
}

// ---------------------------------------------------------------------
// Randomized differential test: the kernel against the plain reference
// queue (reference_event_queue.hpp).

TEST(EventQueueFastPath, DifferentialAgainstNaiveReference) {
  Rng rng(20260805);
  EventQueue eq;
  ReferenceEventQueue ref;

  std::vector<int> eq_fired;   // schedule ordinals, in execution order
  std::vector<int> ref_fired;
  struct Live {
    int ordinal;
    EventId eq_id;
    EventId ref_id;
  };
  std::vector<Live> live;
  int next_ordinal = 0;

  for (int op = 0; op < 20000; ++op) {
    const double p = rng.uniform();
    if (p < 0.45 || live.empty()) {
      // Coarse times force plenty of exact ties.
      const double when = eq.now() + rng.uniform_i64(0, 8);
      const int ordinal = next_ordinal++;
      const EventId eq_id = eq.schedule_at(
          when, [&eq_fired, ordinal] { eq_fired.push_back(ordinal); });
      const EventId ref_id = ref.schedule_at(
          when, [&ref_fired, ordinal] { ref_fired.push_back(ordinal); });
      live.push_back({ordinal, eq_id, ref_id});
    } else if (p < 0.65) {
      const std::size_t pick =
          static_cast<std::size_t>(rng.uniform_u64(live.size()));
      EXPECT_EQ(eq.cancel(live[pick].eq_id), ref.cancel(live[pick].ref_id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      const bool stepped = eq.step();
      ASSERT_EQ(stepped, ref.step());
      if (stepped) {
        ASSERT_EQ(eq_fired.size(), ref_fired.size());
        EXPECT_EQ(eq_fired.back(), ref_fired.back());
        std::erase_if(live, [o = ref_fired.back()](const Live& entry) {
          return entry.ordinal == o;
        });
        EXPECT_EQ(eq.now(), ref.now());
      }
    }
    EXPECT_EQ(eq.pending(), ref.pending());
  }

  // Drain both completely and compare the full execution order.
  while (true) {
    const bool stepped = eq.step();
    ASSERT_EQ(stepped, ref.step());
    if (!stepped) break;
    EXPECT_EQ(eq.now(), ref.now());
  }
  EXPECT_EQ(eq_fired, ref_fired);
}

}  // namespace
}  // namespace raidsim
