#include "svc/job_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace raidsim::svc {
namespace {

TEST(BoundedQueue, PushRejectsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // never blocks
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, CloseRejectsPushesAndDrainsBacklog) {
  BoundedQueue<int> q(4);
  q.try_push(1);
  q.try_push(2);
  q.close();
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.pop().value(), 1);  // backlog still drains
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // then nullopt, no hang
}

TEST(BoundedQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(4);
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i)
    consumers.emplace_back([&q, &woke] {
      while (q.pop().has_value()) {
      }
      woke.fetch_add(1);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(BoundedQueue, ConcurrentProducersConsumersLoseNothing) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 2000;
  std::atomic<int> accepted{0}, consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        if (q.try_push(i)) accepted.fetch_add(1);
    });
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c)
    consumers.emplace_back([&] {
      while (q.pop().has_value()) consumed.fetch_add(1);
    });
  for (auto& t : threads) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  // Everything accepted is consumed exactly once; the bound held.
  EXPECT_EQ(consumed.load(), accepted.load());
  EXPECT_GT(accepted.load(), 0);
}

}  // namespace
}  // namespace raidsim::svc
