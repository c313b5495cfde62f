// Fail-slow mitigation (ArrayController::Config::tail, the one kTail*
// preset): hedged reads with first-completion-wins, deadline escalation,
// mirror redirect-on-slow, and the EWMA gate that keeps parity
// reconstructs from firing against healthy-but-queued disks. A disk is
// made fail-slow by installing a constant slowdown hook directly (the
// SlowdownInjector has its own tests).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "array/uncached_controller.hpp"
#include "obs/tracer.hpp"

namespace raidsim {
namespace {

class TailPolicyTest : public ::testing::Test {
 protected:
  ArrayController::Config config(Organization org, bool tail = true,
                                 int n = 4) {
    ArrayController::Config cfg;
    cfg.tail = tail;
    cfg.layout.organization = org;
    cfg.layout.data_disks = n;
    cfg.layout.data_blocks_per_disk = 360;
    cfg.layout.physical_blocks_per_disk = cfg.disk_geometry.total_blocks();
    return cfg;
  }

  /// Constant extra service time on one disk: the canonical fail-slow
  /// straggler for these tests.
  static void make_slow(ArrayController& c, int disk, double extra_ms) {
    c.disks()[static_cast<std::size_t>(disk)]->set_slowdown_hook(
        [extra_ms](const DiskRequest&, SimTime, double) { return extra_ms; });
  }

  /// Logical blocks whose primary extent lives on `disk`.
  static std::vector<std::int64_t> blocks_on(const ArrayController& c,
                                             int disk, int count) {
    std::vector<std::int64_t> blocks;
    for (std::int64_t b = 0; b < 1440 && static_cast<int>(blocks.size()) <
                                             count;
         ++b) {
      if (c.layout().map_read(b, 1)[0].disk == disk) blocks.push_back(b);
    }
    return blocks;
  }

  /// Submit one read per block, spaced `gap_ms` apart (so completions
  /// feed the EWMA before the next arrival), and run to completion.
  static int drive(EventQueue& eq, ArrayController& c,
                   const std::vector<std::int64_t>& blocks,
                   double gap_ms = 25.0) {
    int completed = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::int64_t block = blocks[i];
      eq.schedule_at(static_cast<double>(i) * gap_ms, [&c, &completed, block] {
        c.submit(ArrayRequest{block, 1, false},
                 [&completed](SimTime) { ++completed; });
      });
    }
    eq.run();
    return completed;
  }

  /// Every logical block once: spreads warm-up ops across all disks.
  static std::vector<std::int64_t> spread_blocks(int count) {
    std::vector<std::int64_t> blocks;
    for (int i = 0; i < count; ++i)
      blocks.push_back((static_cast<std::int64_t>(i) * 37) % 1440);
    return blocks;
  }
};

TEST_F(TailPolicyTest, MirrorHedgeFirstCompletionWins) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kMirror));
  const int slow = c.layout().map_read(0, 1)[0].disk;
  make_slow(c, slow, 400.0);

  const int n = drive(eq, c, blocks_on(c, slow, 24));
  EXPECT_EQ(n, 24);
  const auto& s = c.stats();
  // A cold primary's EWMA is 0, so its hedge goes out at once and the
  // twin answers first.
  EXPECT_GT(s.hedged_reads, 0u);
  EXPECT_GT(s.hedge_wins, 0u);
  // The straggler's late completions are the cancelled legs.
  EXPECT_GT(s.hedge_cancellations, 0u);
}

TEST_F(TailPolicyTest, DeadlineEscalationForcesTheHedge) {
  // Both twins slow: redirect-on-slow has no faster copy to pick, and
  // once warm the hedge timer (3x a ~400 ms EWMA) lies far past the
  // primary's own completion. Reads arrive 500 ms apart on idle disks,
  // so a hedge issued 120 ms after its read's arrival is the deadline's.
  EventQueue eq;
  Tracer tracer;
  auto cfg = config(Organization::kMirror);
  cfg.tracer = &tracer;
  cfg.array_index = 0;
  UncachedController c(eq, cfg);
  const int disk = c.layout().map_read(0, 1)[0].disk;
  make_slow(c, disk, 400.0);
  make_slow(c, c.layout().mirror_of(disk), 400.0);

  constexpr double kGapMs = 500.0;
  drive(eq, c, blocks_on(c, disk, 24), kGapMs);
  const auto& s = c.stats();
  EXPECT_GT(s.timeouts_fired, 0u);
  EXPECT_EQ(s.redirected_reads, 0u);
  int at_deadline = 0;
  tracer.for_each([&at_deadline](const TraceEvent& e) {
    if (e.phase == ObsPhase::kHedgeIssued &&
        std::fmod(e.ts, kGapMs) == ArrayController::kTailDeadlineMs)
      ++at_deadline;
  });
  EXPECT_GT(at_deadline, 0);
}

TEST_F(TailPolicyTest, MirrorRedirectOnSlowSteersToTheTwin) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kMirror));
  const int slow = c.layout().map_read(0, 1)[0].disk;
  make_slow(c, slow, 400.0);

  // Long run on the slow disk's blocks: both twins warm their EWMAs
  // (the seek/queue tie-break and the hedges spread early reads over
  // the pair), after which the redirect overrides the seek choice.
  drive(eq, c, blocks_on(c, slow, 60));
  EXPECT_GT(c.stats().redirected_reads, 0u);
  // Redirected reads never reach the straggler: it served fewer than
  // half of them.
  EXPECT_LT(c.disks()[static_cast<std::size_t>(slow)]->stats().reads, 30u);
}

TEST_F(TailPolicyTest, ParityHedgeRequiresEwmaSlowPrimary) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kRaid5));

  // Phase 1: healthy array. Warm every disk's EWMA; no hedge may fire
  // (no disk is slow relative to the median).
  drive(eq, c, spread_blocks(120));
  EXPECT_EQ(c.stats().hedged_reads, 0u);

  // Phase 2: one disk turns fail-slow. Its EWMA climbs past the
  // kTailSlowFactor gate and reads against it hedge via reconstruction.
  const int slow = c.layout().map_read(0, 1)[0].disk;
  make_slow(c, slow, 400.0);
  drive(eq, c, blocks_on(c, slow, 40));
  const auto& s = c.stats();
  EXPECT_GT(s.hedged_reads, 0u);
  EXPECT_GT(s.hedge_wins, 0u);
}

TEST_F(TailPolicyTest, DisabledPolicyCountsNothing) {
  EventQueue eq;
  UncachedController c(eq, config(Organization::kMirror, /*tail=*/false));
  const int slow = c.layout().map_read(0, 1)[0].disk;
  make_slow(c, slow, 400.0);

  drive(eq, c, blocks_on(c, slow, 24));
  const auto& s = c.stats();
  EXPECT_EQ(s.hedged_reads, 0u);
  EXPECT_EQ(s.hedge_wins, 0u);
  EXPECT_EQ(s.hedge_cancellations, 0u);
  EXPECT_EQ(s.timeouts_fired, 0u);
  EXPECT_EQ(s.redirected_reads, 0u);
  // The slowdown itself still happened -- only the mitigation is off.
  EXPECT_GT(c.disks()[static_cast<std::size_t>(slow)]->stats().slow_ops, 0u);
}

}  // namespace
}  // namespace raidsim
