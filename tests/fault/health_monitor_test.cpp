// HealthMonitor: automatic spare allocation + rebuild, double-failure
// data-loss detection (graceful, recorded, no crash), and spare-pool
// exhaustion and replenishment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "array/uncached_controller.hpp"
#include "fault/health_monitor.hpp"

namespace raidsim {
namespace {

class HealthMonitorTest : public ::testing::Test {
 protected:
  ArrayController::Config config(Organization org, int n = 4) {
    ArrayController::Config cfg;
    cfg.layout.organization = org;
    cfg.layout.data_disks = n;
    cfg.layout.data_blocks_per_disk = 360;  // 2 cylinders: fast rebuilds
    cfg.layout.physical_blocks_per_disk = cfg.disk_geometry.total_blocks();
    return cfg;
  }

  HealthMonitor::Options options(int spares) {
    HealthMonitor::Options opt;
    opt.hot_spares = spares;
    opt.rebuild.blocks_per_pass = 60;
    return opt;
  }

  bool has_event(const HealthMonitor& m, HealthMonitor::EventKind kind) {
    return std::any_of(m.events().begin(), m.events().end(),
                       [kind](const auto& e) { return e.kind == kind; });
  }
};

TEST_F(HealthMonitorTest, SpareAllocationTriggersAutomaticRebuild) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  HealthMonitor monitor(eq, c, options(1));

  monitor.on_disk_failure(0, 2);
  EXPECT_EQ(c.failed_disk(), 2);
  EXPECT_EQ(monitor.spares_available(), 0);
  EXPECT_TRUE(monitor.rebuild_active(0));
  eq.run();
  EXPECT_EQ(monitor.rebuilds_completed(), 1);
  EXPECT_EQ(c.failed_disk(), -1);
  EXPECT_TRUE(monitor.failed_disks(0).empty());
  EXPECT_FALSE(monitor.data_loss());
  EXPECT_TRUE(has_event(monitor, HealthMonitor::EventKind::kSpareAllocated));
  EXPECT_TRUE(has_event(monitor, HealthMonitor::EventKind::kRebuildStarted));
  EXPECT_TRUE(has_event(monitor, HealthMonitor::EventKind::kRebuildCompleted));
}

TEST_F(HealthMonitorTest, SpareSwapDelayDefersRebuild) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  auto opt = options(1);
  opt.spare_swap_ms = 500.0;
  HealthMonitor monitor(eq, c, opt);
  monitor.on_disk_failure(0, 1);
  EXPECT_FALSE(monitor.rebuild_active(0));
  eq.run_until(499.0);
  EXPECT_FALSE(monitor.rebuild_active(0));
  eq.run();
  EXPECT_EQ(monitor.rebuilds_completed(), 1);
}

TEST_F(HealthMonitorTest, DoubleFailureInParityGroupRecordsDataLoss) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  HealthMonitor monitor(eq, c, options(0));  // no spare: stays degraded

  monitor.on_disk_failure(0, 0);
  EXPECT_FALSE(monitor.data_loss());
  monitor.on_disk_failure(0, 3);  // second concurrent failure: loss
  ASSERT_TRUE(monitor.data_loss());
  ASSERT_EQ(monitor.losses().size(), 1u);
  const auto& loss = monitor.losses()[0];
  EXPECT_EQ(loss.array, 0);
  EXPECT_EQ(loss.failed_disks, (std::vector<int>{0, 3}));
  EXPECT_GT(loss.lost_blocks, 0);
  EXPECT_TRUE(monitor.array_lost(0));
  EXPECT_TRUE(has_event(monitor, HealthMonitor::EventKind::kDataLoss));

  // Graceful degradation: the array still serves what it can.
  double done = -1.0;
  c.submit(ArrayRequest{0, 1, false}, [&](SimTime t) { done = t; });
  eq.run();
  EXPECT_GE(done, 0.0);
}

TEST_F(HealthMonitorTest, MirrorTwinFailureIsLossButOtherPairIsNot) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kMirror, 3));  // 6 disks
  HealthMonitor monitor(eq, c, options(0));

  monitor.on_disk_failure(0, 0);
  monitor.on_disk_failure(0, 4);  // different pair: redundancy holds
  EXPECT_FALSE(monitor.data_loss());
  EXPECT_EQ(monitor.failed_disks(0).size(), 2u);

  monitor.on_disk_failure(0, 1);  // twin of disk 0: pair gone
  EXPECT_TRUE(monitor.data_loss());
  EXPECT_EQ(monitor.losses()[0].failed_disks, (std::vector<int>{0, 4, 1}));
}

TEST_F(HealthMonitorTest, ConcurrentMirrorPairFailuresRecoverSerially) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kMirror, 3));
  HealthMonitor monitor(eq, c, options(2));

  monitor.on_disk_failure(0, 0);
  monitor.on_disk_failure(0, 2);  // other pair, queued behind disk 0
  EXPECT_EQ(c.failed_disk(), 0);
  eq.run();
  EXPECT_EQ(monitor.rebuilds_completed(), 2);
  EXPECT_TRUE(monitor.failed_disks(0).empty());
  EXPECT_FALSE(monitor.data_loss());
  EXPECT_EQ(c.failed_disk(), -1);
}

TEST_F(HealthMonitorTest, SparePoolExhaustionWaitsForReplenishment) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  HealthMonitor monitor(eq, c, options(0));

  monitor.on_disk_failure(0, 1);
  eq.run();
  EXPECT_TRUE(has_event(monitor, HealthMonitor::EventKind::kSpareExhausted));
  EXPECT_FALSE(monitor.rebuild_active(0));
  EXPECT_EQ(c.failed_disk(), 1);  // still degraded

  monitor.add_spares(1);
  EXPECT_TRUE(monitor.rebuild_active(0));
  eq.run();
  EXPECT_EQ(monitor.rebuilds_completed(), 1);
  EXPECT_EQ(monitor.spares_available(), 0);
  EXPECT_EQ(c.failed_disk(), -1);
}

TEST_F(HealthMonitorTest, BaseOrganizationLosesDataOnEveryFailure) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kBase));
  HealthMonitor monitor(eq, c, options(1));
  monitor.on_disk_failure(0, 2);
  EXPECT_TRUE(monitor.data_loss());
  EXPECT_FALSE(monitor.rebuild_active(0));  // nothing to rebuild from
}

TEST_F(HealthMonitorTest, DuplicateFailureReportIsIdempotent) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  HealthMonitor monitor(eq, c, options(0));
  monitor.on_disk_failure(0, 1);
  monitor.on_disk_failure(0, 1);  // e.g. injector + retry exhaustion
  EXPECT_FALSE(monitor.data_loss());
  EXPECT_EQ(monitor.failed_disks(0).size(), 1u);
}

// ---- hot-spare exhaustion under a second failure (regression guards:
// ---- the monitor must account the loss and never touch a spare that
// ---- does not exist).

TEST_F(HealthMonitorTest, SecondFailureWithExhaustedPoolIsGracefulLoss) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  HealthMonitor monitor(eq, c, options(1));

  monitor.on_disk_failure(0, 0);  // consumes the only spare, rebuild starts
  EXPECT_EQ(monitor.spares_available(), 0);
  EXPECT_TRUE(monitor.rebuild_active(0));

  // Second failure mid-rebuild with the pool empty: two disks of one
  // parity group down at once -- data loss, recorded, no crash, and no
  // attempt to allocate the spare that is not there.
  monitor.on_disk_failure(0, 3);
  EXPECT_TRUE(monitor.data_loss());
  EXPECT_TRUE(monitor.array_lost(0));
  ASSERT_EQ(monitor.losses().size(), 1u);
  const auto& loss = monitor.losses()[0];
  EXPECT_EQ(loss.array, 0);
  ASSERT_EQ(loss.failed_disks.size(), 2u);
  EXPECT_GT(loss.lost_blocks, 0);
  EXPECT_EQ(monitor.spares_available(), 0);

  eq.run();  // whatever rebuild work was in flight drains without UB
  EXPECT_TRUE(monitor.array_lost(0));
}

TEST_F(HealthMonitorTest, SpareArrivingAfterLossIsNotConsumed) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kMirror));
  HealthMonitor monitor(eq, c, options(0));

  const int twin = c.layout().mirror_of(0);
  ASSERT_GE(twin, 0);
  monitor.on_disk_failure(0, 0);
  monitor.on_disk_failure(0, twin);  // pair gone: loss
  EXPECT_TRUE(monitor.data_loss());
  EXPECT_TRUE(monitor.array_lost(0));
  EXPECT_TRUE(has_event(monitor, HealthMonitor::EventKind::kSpareExhausted));

  // A replacement arriving after the array is lost stays in the pool:
  // there is nothing left to rebuild onto it.
  monitor.add_spares(1);
  eq.run();
  EXPECT_EQ(monitor.spares_available(), 1);
  EXPECT_EQ(monitor.rebuilds_completed(), 0);
  EXPECT_FALSE(monitor.rebuild_active(0));
}

TEST_F(HealthMonitorTest, Validation) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  EXPECT_THROW(HealthMonitor(eq, std::vector<ArrayController*>{},
                             HealthMonitor::Options{}),
               std::invalid_argument);
  HealthMonitor monitor(eq, c, options(1));
  EXPECT_THROW(monitor.on_disk_failure(0, 99), std::invalid_argument);
  EXPECT_THROW(monitor.add_spares(-1), std::invalid_argument);
}

}  // namespace
}  // namespace raidsim
