#include <gtest/gtest.h>

#include "array/cached_controller.hpp"

namespace raidsim {
namespace {

class ParityCachingTest : public ::testing::Test {
 protected:
  ArrayController::Config config(int n = 4) {
    ArrayController::Config cfg;
    cfg.layout.organization = Organization::kRaid4;
    cfg.layout.data_disks = n;
    cfg.layout.data_blocks_per_disk = 1800;
    cfg.layout.physical_blocks_per_disk = cfg.disk_geometry.total_blocks();
    return cfg;
  }

  CachedController::CacheConfig cache_config(std::int64_t blocks = 64) {
    CachedController::CacheConfig cfg;
    cfg.cache_bytes = blocks * 4096;
    cfg.destage_period_ms = 50.0;
    cfg.parity_caching = true;
    return cfg;
  }

  void run_write(CachedController& c, EventQueue& eq, std::int64_t block,
                 int count = 1) {
    bool done = false;
    c.submit(ArrayRequest{block, count, true}, [&](SimTime) { done = true; });
    while (!done && eq.step()) {
    }
    EXPECT_TRUE(done);
  }

  void drain(CachedController& c, EventQueue& eq) {
    eq.run_until(eq.now() + 5000.0);
    c.shutdown();
    eq.run();
  }
};

TEST_F(ParityCachingTest, RequiresRaid4) {
  EventQueue eq;
  auto cfg = config();
  cfg.layout.organization = Organization::kRaid5;
  EXPECT_THROW(CachedController(eq, cfg, cache_config()),
               std::invalid_argument);
}

TEST_F(ParityCachingTest, ParityUpdatesSpooledToParityDisk) {
  EventQueue eq;
  CachedController c(eq, config(), cache_config());
  run_write(c, eq, 5);
  drain(c, eq);
  EXPECT_EQ(c.stats().parity_spools, 1u);
  EXPECT_EQ(c.parity_queue_length(), 0u);
  EXPECT_EQ(c.cache().parity_slots(), 0u);  // released after spooling
  // N=4: the parity disk is index 4; the delta entry is an RMW there.
  EXPECT_EQ(c.disks()[4]->stats().rmws, 1u);
  // The data destage was an RMW too (write miss: no old copy).
  EXPECT_EQ(c.disks()[0]->stats().rmws + c.disks()[1]->stats().rmws +
                c.disks()[2]->stats().rmws + c.disks()[3]->stats().rmws,
            1u);
}

TEST_F(ParityCachingTest, FullStripeParityWrittenWithoutRead) {
  EventQueue eq;
  CachedController c(eq, config(), cache_config());
  run_write(c, eq, 0, 4);  // full row (N=4, unit 1)
  drain(c, eq);
  EXPECT_EQ(c.disks()[4]->stats().writes, 1u);  // plain parity write
  EXPECT_EQ(c.disks()[4]->stats().rmws, 0u);
}

TEST_F(ParityCachingTest, UpdatesToSameParityBlockCoalesce) {
  EventQueue eq;
  auto cache_cfg = cache_config();
  cache_cfg.destage_period_ms = 400.0;  // let several writes accumulate
  CachedController c(eq, config(), cache_cfg);
  // Three writes in the same stripe row but different columns share one
  // parity block. They destage in the same round; their deltas coalesce
  // when a spool entry is still pending.
  run_write(c, eq, 0);
  run_write(c, eq, 1);
  run_write(c, eq, 2);
  drain(c, eq);
  EXPECT_GE(c.stats().parity_spools, 1u);
  EXPECT_LE(c.stats().parity_spools, 3u);
  EXPECT_EQ(c.parity_queue_length(), 0u);
  EXPECT_EQ(c.cache().parity_slots(), 0u);
}

TEST_F(ParityCachingTest, TinyCacheStallsReservationAndRecovers) {
  EventQueue eq;
  // 2-block cache: a dirty block plus its pending parity cannot both fit
  // alongside further dirty blocks, forcing reservation failures.
  CachedController c(eq, config(), cache_config(2));
  for (int i = 0; i < 6; ++i) run_write(c, eq, i * 10);
  drain(c, eq);
  // Reservations failed at least once, the fallback serviced parity
  // directly from disk, and everything still reached the disks.
  EXPECT_GE(c.stats().parity_reservation_failures, 1u);
  EXPECT_EQ(c.cache().dirty_count(), 0u);
  EXPECT_EQ(c.parity_queue_length(), 0u);
}

TEST_F(ParityCachingTest, SpoolerDrainsInScanOrder) {
  EventQueue eq;
  auto cache_cfg = cache_config();
  cache_cfg.destage_period_ms = 400.0;
  CachedController c(eq, config(), cache_cfg);
  // N=4: the parity disk is index 4. Log its service order, and hold
  // the first parity op long enough for the next destage pass to queue
  // blocks on both sides of it.
  std::vector<std::int64_t> served;
  c.disks()[4]->set_slowdown_hook(
      [&served](const DiskRequest& req, SimTime, double) {
        served.push_back(req.start_block);
        return served.size() == 1 ? 1000.0 : 0.0;
      });
  run_write(c, eq, 80);  // row 20: destaged at t=600, served first
  eq.run_until(450.0);
  // Rows 40, 0, 30, 10, one per data disk, destage over t=800..1200
  // while row 20 is still in service.
  for (const std::int64_t block : {160, 1, 122, 43}) run_write(c, eq, block);
  drain(c, eq);
  EXPECT_EQ(c.stats().parity_spools, 5u);
  EXPECT_EQ(c.disks()[4]->stats().rmws, 5u);
  EXPECT_EQ(c.stats().parity_queue_peak, 4u);
  // SCAN: ascending from the last served block, then wrap to the lowest.
  EXPECT_EQ(served, (std::vector<std::int64_t>{20, 30, 40, 0, 10}));
}

TEST_F(ParityCachingTest, PeakQueueTracked) {
  EventQueue eq;
  auto cache_cfg = cache_config();
  cache_cfg.destage_period_ms = 400.0;
  CachedController c(eq, config(), cache_cfg);
  run_write(c, eq, 0);
  run_write(c, eq, 400);
  drain(c, eq);
  EXPECT_GE(c.stats().parity_queue_peak, 1u);
}

}  // namespace
}  // namespace raidsim
