#include "array/controller.hpp"

#include <gtest/gtest.h>

#include "array/uncached_controller.hpp"

namespace raidsim {
namespace {

TEST(Barrier, FiresAfterAllArrivals) {
  OpArena arena;
  double fired_at = -1.0;
  auto barrier = Barrier::create(arena, 3, [&](SimTime t) { fired_at = t; });
  barrier->arrive(1.0);
  barrier->arrive(2.0);
  EXPECT_EQ(fired_at, -1.0);
  barrier->arrive(3.5);
  EXPECT_EQ(fired_at, 3.5);
}

TEST(Barrier, ExpectAddsArrivals) {
  OpArena arena;
  int fired = 0;
  auto barrier = Barrier::create(arena, 1, [&](SimTime) { ++fired; });
  barrier->expect(1);
  barrier->arrive(1.0);
  EXPECT_EQ(fired, 0);
  barrier->arrive(2.0);
  EXPECT_EQ(fired, 1);
}

TEST(SyncPolicy, Names) {
  EXPECT_EQ(to_string(SyncPolicy::kSimultaneousIssue), "SI");
  EXPECT_EQ(to_string(SyncPolicy::kReadFirst), "RF");
  EXPECT_EQ(to_string(SyncPolicy::kReadFirstPriority), "RF/PR");
  EXPECT_EQ(to_string(SyncPolicy::kDiskFirst), "DF");
  EXPECT_EQ(to_string(SyncPolicy::kDiskFirstPriority), "DF/PR");
}

class ControllerFixture : public ::testing::Test {
 protected:
  ArrayController::Config config(Organization org, int n = 4) {
    ArrayController::Config cfg;
    cfg.layout.organization = org;
    cfg.layout.data_disks = n;
    cfg.layout.data_blocks_per_disk = 1800;  // 10 cylinders worth
    cfg.layout.physical_blocks_per_disk = cfg.disk_geometry.total_blocks();
    return cfg;
  }
};

TEST_F(ControllerFixture, BuildsComponentsToMatchLayout) {
  EventQueue eq;
  UncachedController base(eq, config(Organization::kBase));
  EXPECT_EQ(base.disks().size(), 4u);
  EXPECT_EQ(base.buffers().capacity(), 20);  // 5 per disk

  UncachedController mirror(eq, config(Organization::kMirror));
  EXPECT_EQ(mirror.disks().size(), 8u);

  UncachedController raid5(eq, config(Organization::kRaid5));
  EXPECT_EQ(raid5.disks().size(), 5u);
}

TEST_F(ControllerFixture, SeekModelCalibratedFromConfig) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kBase));
  EXPECT_NEAR(c.seek_model().average_over_uniform(), 11.2, 1e-9);
}

}  // namespace
}  // namespace raidsim
