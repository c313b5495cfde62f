// ScrubProcess: the patrol read finds latent sector errors and repairs
// them through the controller's reconstruct-and-rewrite path; without
// redundancy the error is a recorded loss; failed disks are skipped.
#include <gtest/gtest.h>

#include "array/uncached_controller.hpp"
#include "fault/scrub.hpp"

namespace raidsim {
namespace {

class ScrubTest : public ::testing::Test {
 protected:
  ArrayController::Config config(Organization org, int n = 4) {
    ArrayController::Config cfg;
    cfg.layout.organization = org;
    cfg.layout.data_disks = n;
    cfg.layout.data_blocks_per_disk = 360;
    cfg.layout.physical_blocks_per_disk = cfg.disk_geometry.total_blocks();
    return cfg;
  }

  ScrubProcess::Options single_sweep() {
    ScrubProcess::Options opt;
    opt.blocks_per_pass = 60;
    return opt;  // sweep_interval_ms < 0: one sweep, then stop
  }
};

TEST_F(ScrubTest, FindsAndRepairsLatentError) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  const auto extent = c.layout().map_read(5, 1)[0];
  auto& disk = *c.disks()[static_cast<std::size_t>(extent.disk)];
  disk.plant_media_error(extent.start_block);
  ASSERT_EQ(disk.media_error_count(), 1u);

  ScrubProcess scrub(eq, c, single_sweep());
  scrub.start();
  eq.run();

  EXPECT_FALSE(scrub.running());
  EXPECT_EQ(scrub.stats().sweeps_completed, 1u);
  EXPECT_EQ(scrub.stats().errors_found, 1u);
  EXPECT_EQ(c.stats().media_errors, 1u);
  EXPECT_EQ(c.stats().media_repairs, 1u);  // reconstructed and remapped
  EXPECT_EQ(c.stats().media_losses, 0u);
  EXPECT_EQ(disk.media_error_count(), 0u);
  // Every block of every disk was patrolled.
  const auto span = c.layout().physical_blocks_used();
  EXPECT_EQ(scrub.stats().blocks_scrubbed,
            static_cast<std::uint64_t>(span) *
                static_cast<std::uint64_t>(c.layout().total_disks()));
}

TEST_F(ScrubTest, DemandReadRepairsMediaErrorInline) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  const auto extent = c.layout().map_read(7, 1)[0];
  auto& disk = *c.disks()[static_cast<std::size_t>(extent.disk)];
  disk.plant_media_error(extent.start_block);

  double done = -1.0;
  c.submit(ArrayRequest{7, 1, false}, [&](SimTime t) { done = t; });
  eq.run();

  EXPECT_GE(done, 0.0);
  EXPECT_EQ(c.stats().media_errors, 1u);
  EXPECT_EQ(c.stats().media_repairs, 1u);
  EXPECT_EQ(disk.media_error_count(), 0u);
}

TEST_F(ScrubTest, MediaErrorWithoutRedundancyIsRecordedLoss) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kBase));
  const auto extent = c.layout().map_read(3, 1)[0];
  auto& disk = *c.disks()[static_cast<std::size_t>(extent.disk)];
  disk.plant_media_error(extent.start_block);

  double done = -1.0;
  c.submit(ArrayRequest{3, 1, false}, [&](SimTime t) { done = t; });
  eq.run();

  EXPECT_GE(done, 0.0);  // graceful: the request still completes
  EXPECT_EQ(c.stats().media_errors, 1u);
  EXPECT_EQ(c.stats().media_losses, 1u);
  EXPECT_EQ(c.stats().media_repairs, 0u);
  EXPECT_GE(c.stats().unrecoverable, 1u);
  EXPECT_EQ(disk.media_error_count(), 0u);  // remapped (content lost)
}

TEST_F(ScrubTest, SecondErrorInGroupIsDoubleFault) {
  // The repair of the first error reads the group, and that read hits the
  // second error. Repairing it would read the first block again, and so
  // on forever; instead it is a loss and both repairs end.
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  const auto first = c.layout().map_read(7, 1)[0];
  const auto groups = c.layout().degraded_group(first);
  ASSERT_FALSE(groups.empty());
  ASSERT_FALSE(groups[0].member_reads.empty());
  const auto second = groups[0].member_reads[0];
  auto& first_disk = *c.disks()[static_cast<std::size_t>(first.disk)];
  auto& second_disk = *c.disks()[static_cast<std::size_t>(second.disk)];
  first_disk.plant_media_error(first.start_block);
  second_disk.plant_media_error(second.start_block);

  double done = -1.0;
  c.submit(ArrayRequest{7, 1, false}, [&](SimTime t) { done = t; });
  eq.run();

  EXPECT_GE(done, 0.0);
  EXPECT_EQ(c.stats().media_errors, 2u);
  EXPECT_EQ(c.stats().media_repairs, 1u);  // the first block, rewritten
  EXPECT_EQ(c.stats().media_losses, 1u);   // the second, double fault
  EXPECT_EQ(c.stats().unrecoverable, 1u);
  EXPECT_EQ(first_disk.media_error_count(), 0u);
  EXPECT_EQ(second_disk.media_error_count(), 0u);
}

TEST_F(ScrubTest, ScrubEndsOverTwoErrorsInOneGroup) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  const auto first = c.layout().map_read(11, 1)[0];
  const auto second = c.layout().degraded_group(first)[0].member_reads[0];
  c.disks()[static_cast<std::size_t>(first.disk)]->plant_media_error(
      first.start_block);
  c.disks()[static_cast<std::size_t>(second.disk)]->plant_media_error(
      second.start_block);

  ScrubProcess scrub(eq, c, single_sweep());
  scrub.start();
  eq.run();

  EXPECT_EQ(scrub.stats().sweeps_completed, 1u);
  EXPECT_EQ(c.stats().media_errors, 2u);
  EXPECT_EQ(c.stats().media_repairs, 1u);
  EXPECT_EQ(c.stats().media_losses, 1u);
  EXPECT_EQ(c.stats().unrecoverable, 1u);
  for (const auto& disk : c.disks()) EXPECT_EQ(disk->media_error_count(), 0u);
}

TEST_F(ScrubTest, SkipsFailedDiskMidSweep) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  c.fail_disk(2);

  ScrubProcess scrub(eq, c, single_sweep());
  scrub.start();
  eq.run();

  EXPECT_EQ(scrub.stats().sweeps_completed, 1u);
  EXPECT_EQ(scrub.stats().disks_skipped, 1u);
  const auto span = c.layout().physical_blocks_used();
  EXPECT_EQ(scrub.stats().blocks_scrubbed,
            static_cast<std::uint64_t>(span) *
                static_cast<std::uint64_t>(c.layout().total_disks() - 1));
}

TEST_F(ScrubTest, ContinuousSweepsUntilStopped) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  auto opt = single_sweep();
  opt.sweep_interval_ms = 10.0;  // continuous patrol
  ScrubProcess scrub(eq, c, opt);
  scrub.start();
  eq.run_until(30000.0);
  EXPECT_GE(scrub.stats().sweeps_completed, 2u);
  scrub.stop();
  eq.run();  // terminates: no further sweeps are scheduled
  EXPECT_FALSE(scrub.running());
}

TEST_F(ScrubTest, Validation) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));
  ScrubProcess::Options bad;
  bad.blocks_per_pass = 0;
  EXPECT_THROW(ScrubProcess(eq, c, bad), std::invalid_argument);

  ScrubProcess scrub(eq, c, single_sweep());
  scrub.start();
  EXPECT_THROW(scrub.start(), std::logic_error);
}

}  // namespace
}  // namespace raidsim
