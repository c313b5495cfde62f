#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace raidsim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(5.0, [&] { order.push_back(2); });
  eq.schedule_at(1.0, [&] { order.push_back(1); });
  eq.schedule_at(9.0, [&] { order.push_back(3); });
  eq.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eq.now(), 9.0);
}

TEST(EventQueue, TiesBreakFifo) {
  EventQueue eq;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) eq.schedule_at(4.0, [&order, i] { order.push_back(i); });
  eq.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue eq;
  double fired_at = -1.0;
  eq.schedule_at(10.0, [&] {
    eq.schedule_in(2.5, [&] { fired_at = eq.now(); });
  });
  eq.run();
  EXPECT_EQ(fired_at, 12.5);
}

TEST(EventQueue, PastTimesClampToNow) {
  EventQueue eq;
  double fired_at = -1.0;
  eq.schedule_at(10.0, [&] {
    eq.schedule_at(3.0, [&] { fired_at = eq.now(); });
  });
  eq.run();
  EXPECT_EQ(fired_at, 10.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue eq;
  bool ran = false;
  const EventId id = eq.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(eq.cancel(id));
  EXPECT_FALSE(eq.cancel(id));  // second cancel is a no-op
  eq.run();
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue eq;
  EXPECT_FALSE(eq.cancel(0));
  EXPECT_FALSE(eq.cancel(12345));
}

TEST(EventQueue, CancelAfterRunReturnsFalse) {
  EventQueue eq;
  const EventId id = eq.schedule_at(1.0, [] {});
  eq.run();
  EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, PendingAndEmptyTrackCancellations) {
  EventQueue eq;
  const EventId a = eq.schedule_at(1.0, [] {});
  eq.schedule_at(2.0, [] {});
  EXPECT_EQ(eq.pending(), 2u);
  eq.cancel(a);
  EXPECT_EQ(eq.pending(), 1u);
  eq.run();
  EXPECT_TRUE(eq.empty());
  EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, RunWithLimit) {
  EventQueue eq;
  int count = 0;
  for (int i = 0; i < 5; ++i) eq.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(eq.run(3), 3u);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(eq.run(), 2u);
}

TEST(EventQueue, StopReturnsAfterCurrentCallback) {
  // Three events tie at t = 1; the second stops the run. Nothing else may
  // run first, and an event scheduled after the stop takes the sequence
  // number it would have taken inside the stopping callback.
  EventQueue eq;
  std::vector<int> order;
  eq.schedule_at(1.0, [&] { order.push_back(0); });
  eq.schedule_at(1.0, [&] {
    order.push_back(1);
    eq.stop();
  });
  eq.schedule_at(1.0, [&] { order.push_back(2); });
  EXPECT_EQ(eq.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  eq.schedule_at(1.0, [&] { order.push_back(3); });
  EXPECT_EQ(eq.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, StopOutsideRunIsDropped) {
  EventQueue eq;
  int count = 0;
  for (int i = 0; i < 3; ++i) eq.schedule_at(i, [&] { ++count; });
  eq.stop();
  EXPECT_EQ(eq.run(), 3u);
  EXPECT_EQ(count, 3);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue eq;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) eq.schedule_at(t, [&fired, &eq] { fired.push_back(eq.now()); });
  eq.run_until(2.0);  // events at exactly 2.0 run
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(eq.now(), 2.0);
  eq.run_until(10.0);
  EXPECT_EQ(fired.size(), 4u);
  EXPECT_EQ(eq.now(), 10.0);  // advances even past the last event
}

TEST(EventQueue, RunUntilSkipsCancelledFront) {
  EventQueue eq;
  bool ran = false;
  const EventId id = eq.schedule_at(1.0, [&] { ran = true; });
  eq.schedule_at(5.0, [] {});
  eq.cancel(id);
  EXPECT_EQ(eq.run_until(2.0), 0u);
  EXPECT_FALSE(ran);
}

TEST(EventQueue, ExecutedCounts) {
  EventQueue eq;
  for (int i = 0; i < 7; ++i) eq.schedule_in(1.0, [] {});
  eq.run();
  EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue eq;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) eq.schedule_in(1.0, recurse);
  };
  eq.schedule_at(0.0, recurse);
  eq.run();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(eq.now(), 49.0);
}

}  // namespace
}  // namespace raidsim
