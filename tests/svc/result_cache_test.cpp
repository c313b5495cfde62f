#include "svc/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace raidsim::svc {
namespace {

TEST(ResultCache, HitReturnsStoredBytes) {
  ResultCache cache(4);
  std::string out;
  EXPECT_FALSE(cache.lookup("k", &out));
  cache.insert("k", "{\"x\":1}");
  ASSERT_TRUE(cache.lookup("k", &out));
  EXPECT_EQ(out, "{\"x\":1}");
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert("a", "1");
  cache.insert("b", "2");
  std::string out;
  ASSERT_TRUE(cache.lookup("a", &out));  // a is now most recent
  cache.insert("c", "3");                // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup("b", &out));
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_TRUE(cache.lookup("c", &out));
}

TEST(ResultCache, ReinsertRefreshesValueAndRecency) {
  ResultCache cache(2);
  cache.insert("a", "old");
  cache.insert("b", "2");
  cache.insert("a", "new");  // refresh, not duplicate
  EXPECT_EQ(cache.size(), 2u);
  cache.insert("c", "3");  // evicts b (a was refreshed)
  std::string out;
  ASSERT_TRUE(cache.lookup("a", &out));
  EXPECT_EQ(out, "new");
  EXPECT_FALSE(cache.lookup("b", &out));
}

TEST(ResultCache, ZeroCapacityNeverStores) {
  ResultCache cache(0);
  cache.insert("a", "1");
  std::string out;
  EXPECT_FALSE(cache.lookup("a", &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, FullKeyIsIdentityNotItsHash) {
  // Two long keys sharing a prefix must never alias.
  ResultCache cache(8);
  const std::string k1(500, 'x'), k2 = std::string(499, 'x') + "y";
  cache.insert(k1, "one");
  cache.insert(k2, "two");
  std::string out;
  ASSERT_TRUE(cache.lookup(k1, &out));
  EXPECT_EQ(out, "one");
  ASSERT_TRUE(cache.lookup(k2, &out));
  EXPECT_EQ(out, "two");
}

TEST(ResultCache, ConcurrentMixedAccessIsSafe) {
  ResultCache cache(16);
  std::atomic<int> wrong_values{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &wrong_values, t] {
      for (int i = 0; i < 500; ++i) {
        // Appended, not "k" + to_string(): GCC 12 inlines the prepend
        // into a memcpy it falsely flags with -Wrestrict.
        std::string key = "k";
        key += std::to_string((t * 7 + i) % 32);
        std::string out;
        if (!cache.lookup(key, &out))
          cache.insert(key, key + "-value");
        else if (out != key + "-value")
          wrong_values.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.size(), 16u);
  EXPECT_EQ(wrong_values.load(), 0);
}

}  // namespace
}  // namespace raidsim::svc
