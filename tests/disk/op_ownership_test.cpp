// Ownership and allocation budget of the disk and channel queues.
//
// Disk::submit builds each access once in the engine's op arena and the
// queue holds handles; Channel::transfer does the same for transfers.
// This binary links counting_new.cpp, which replaces global operator new
// with a counting version, and checks that:
//  - a warmed-up disk (FIFO, SSTF, SCAN; gated RMWs included) and a
//    warmed-up channel serve requests carrying controller-sized
//    callbacks without a single global allocation;
//  - power_fail destroys every queued request's callbacks and delivers
//    the kill callbacks in arrival order;
//  - the trace generator, whose LRU stack is sized at the first record
//    from its estimate of the distinct blocks, draws every later record
//    of every preset point without a global allocation: neither the
//    stack's index nor its slot array grows, and the slot array compacts
//    in place; the stack it sizes for trace1 x0.25 stays within its
//    memory budget; and a stack's index grows only past 7/8 load;
//  - a simulator destroyed after a cancellation, with requests still
//    queued at disks and channels, tears down cleanly (leak- and
//    use-after-free-checked in the sanitizer build).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "channel/channel.hpp"
#include "counting_new.hpp"
#include "core/simulator.hpp"
#include "core/workloads.hpp"
#include "disk/disk.hpp"
#include "sim/cancellation.hpp"
#include "trace/lru_stack.hpp"

namespace raidsim {
namespace {

using raidsim::test_support::global_allocated_bytes;
using raidsim::test_support::global_allocations;

/// A controller-sized continuation: 64 bytes of captured state plus a
/// pointer, the shape of the controllers' host-completion closures.
struct ControllerSizedDone {
  std::array<std::uint64_t, 8> state{};
  std::uint64_t* sink = nullptr;
  void operator()(SimTime) const { *sink += state[0] + 1; }
};
static_assert(sizeof(ControllerSizedDone) == 72);
static_assert(sizeof(ControllerSizedDone) <= Completion::kInlineBytes,
              "the test must exercise the inline path");

/// Counts live instances, so a test can tell whether the callbacks that
/// captured one were destroyed.
struct Tracked {
  static inline int live = 0;
  Tracked() { ++live; }
  Tracked(const Tracked&) { ++live; }
  Tracked(Tracked&&) noexcept { ++live; }
  ~Tracked() { --live; }
};

class DiskOwnership : public ::testing::TestWithParam<DiskScheduling> {
 protected:
  DiskOwnership()
      : seek_(SeekModel::calibrate(SeekSpec{})),
        disk_(eq_, geo_, &seek_, 0, GetParam()) {}

  /// One burst of reads, writes and RMWs at mixed priorities, all
  /// submitted at once so they queue. Every third op is an RMW whose
  /// gate opens 25 ms after its read pass, so the disk holds for it.
  void round(int r) {
    const std::int64_t span = geo_.total_blocks();
    for (int i = 0; i < 48; ++i) {
      DiskRequest req;
      req.start_block = (static_cast<std::int64_t>(i) * 7919 + r * 131) % span;
      req.block_count = 1;
      req.priority = static_cast<DiskPriority>(i % 3);
      req.on_start = [this](SimTime) { ++started_; };
      ControllerSizedDone done;
      done.state[0] = static_cast<std::uint64_t>(i);
      done.sink = &sink_;
      req.on_complete = done;
      req.on_error = [this](SimTime, DiskError) { ++errors_; };
      req.on_power_fail = [this](SimTime, int) { ++errors_; };
      switch (i % 3) {
        case 0: req.kind = DiskOpKind::kRead; break;
        case 1: req.kind = DiskOpKind::kWrite; break;
        default: {
          req.kind = DiskOpKind::kReadModifyWrite;
          auto gate = make_op<WriteGate>(eq_.op_arena());
          req.gate = gate;
          req.on_read_done = [this, gate](SimTime) {
            ++read_done_;
            eq_.schedule_in(25.0, [this, gate] { gate->open(eq_.now()); });
          };
          break;
        }
      }
      disk_.submit(std::move(req));
    }
    eq_.run();
  }

  EventQueue eq_;
  DiskGeometry geo_;
  SeekModel seek_;
  Disk disk_;
  std::uint64_t sink_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t read_done_ = 0;
  std::uint64_t errors_ = 0;
};

TEST_P(DiskOwnership, WarmSubmitsMakeNoGlobalAllocations) {
  for (int r = 0; r < 3; ++r) round(r);  // grow queues, arena, calendar
  const std::uint64_t before = global_allocations();
  for (int r = 3; r < 6; ++r) round(r);
  const std::uint64_t during = global_allocations() - before;
  EXPECT_EQ(during, 0u);
  EXPECT_EQ(started_, 6u * 48u);
  EXPECT_EQ(read_done_, 6u * 16u);
  EXPECT_EQ(errors_, 0u);
  EXPECT_EQ(disk_.stats().ops(), 6u * 48u);
  EXPECT_GT(disk_.stats().held_rotations, 0u);  // the gates did hold
}

INSTANTIATE_TEST_SUITE_P(Scheduling, DiskOwnership,
                         ::testing::Values(DiskScheduling::kFifo,
                                           DiskScheduling::kSstf,
                                           DiskScheduling::kScan),
                         [](const auto& info) { return to_string(info.param); });

TEST(ChannelOwnership, WarmTransferStreamMakesNoGlobalAllocations) {
  EventQueue eq;
  Channel ch(eq, 10.0);
  std::uint64_t sink = 0;
  // A burst that drains, then a chained stream that never drains: every
  // completion queues the next transfer behind 100 others. The measured
  // streams run five times longer than the warm-up ones, so only a queue
  // that recycles its started prefix stays inside the warm capacity.
  auto round = [&](int chained) {
    for (int i = 0; i < 64; ++i) {
      ControllerSizedDone done;
      done.sink = &sink;
      ch.transfer(4096, done);
    }
    eq.run();
    int budget = chained;
    struct Chain {
      Channel* ch;
      int* budget;
      std::array<std::uint64_t, 7> pad{};
      void operator()(SimTime) const {
        if (--*budget > 0) ch->transfer(4096, *this);
      }
    };
    for (int i = 0; i < 100; ++i) ch.transfer(4096, Chain{&ch, &budget});
    eq.run();
  };
  round(1000);
  round(1000);
  const std::uint64_t before = global_allocations();
  round(5000);
  round(5000);
  EXPECT_EQ(global_allocations() - before, 0u);
  EXPECT_EQ(ch.queue_length(), 0u);
  EXPECT_EQ(sink, 4u * 64u);
}

TEST(GeneratorOwnership, SizedStackDrawsWithoutAllocating) {
  // Without its three-standard-deviation margin the estimate sits 0.6%
  // above trace1 x0.02's 75,742 distinct blocks at seed 1 and 8% below
  // trace2 x0.05's 7,355 at its preset seed, which would grow its index.
  struct Case {
    const char* trace;
    double scale;
    std::uint64_t records;
  };
  for (const Case& c :
       {Case{"trace1", 0.02, 67250}, Case{"trace1", 0.25, 840626},
        Case{"trace2", 0.05, 3477}, Case{"trace2", 0.25, 17385},
        Case{"trace2", 1.0, 69539}}) {
    for (const std::uint64_t seed : {0, 1, 2}) {
      WorkloadOptions options;
      options.scale = c.scale;
      options.seed = seed;  // 0: the preset's own seed
      auto stream = make_workload(c.trace, options);
      ASSERT_TRUE(stream->next().has_value());  // sizes the stack
      const std::uint64_t before = global_allocations();
      std::uint64_t records = 1;
      while (stream->next()) ++records;
      EXPECT_EQ(global_allocations() - before, 0u)
          << c.trace << " x" << c.scale << " seed " << seed;
      EXPECT_EQ(records, c.records) << c.trace << " x" << c.scale;
    }
  }
}

TEST(GeneratorOwnership, SizedStackFitsItsMemoryBudget) {
  // trace1 x0.25's first record sizes the LRU stack for an estimated
  // 752,141 distinct blocks (691,310 at the preset seed): an index of
  // 859,592 4-byte entries, and 967,040 slots (the blocks plus a
  // quarter-index of slack) of 4-byte blocks, live-slot bitmap and word
  // tree, 7,608,736 B (~7.26 MiB) in all.
  WorkloadOptions options;
  options.scale = 0.25;
  auto stream = make_workload("trace1", options);
  const std::uint64_t before = global_allocated_bytes();
  ASSERT_TRUE(stream->next().has_value());
  EXPECT_LT(global_allocated_bytes() - before, std::uint64_t{15} << 19);
}

TEST(GeneratorOwnership, StackIndexGrowsPastSevenEighthsLoad) {
  // A stack reserved for 1000 blocks has an index of 143 groups of 8
  // entries (1144, not a power of two), filled to exactly 7/8 by the
  // 1001st block; the 1002nd doubles it. The slot array (1000 blocks
  // plus 286 slots of slack, 1344 slots) holds every touch, so nothing
  // else allocates.
  LruStack stack;
  stack.reserve(1000);
  const std::size_t reserved_bytes = stack.memory_bytes();
  const std::uint64_t before = global_allocations();
  for (std::int64_t b = 0; b < 1001; ++b) stack.touch(7 * b);
  for (std::int64_t b = 0; b < 1001; b += 3) stack.touch(7 * b);
  EXPECT_EQ(global_allocations() - before, 0u);
  EXPECT_EQ(stack.memory_bytes(), reserved_bytes);
  stack.touch(7 * 1001);
  EXPECT_EQ(global_allocations() - before, 1u);
  EXPECT_EQ(stack.memory_bytes(), reserved_bytes + 1144 * 4);
  EXPECT_EQ(stack.size(), 1002u);
  EXPECT_EQ(stack.compactions(), 0u);
}

TEST(DiskPowerFail, DestroysQueuedCallbacksAndKillsInArrivalOrder) {
  EventQueue eq;
  DiskGeometry geo;
  const SeekModel seek = SeekModel::calibrate(SeekSpec{});
  Disk disk(eq, geo, &seek, 0, DiskScheduling::kSstf);
  const int bpc = geo.blocks_per_cylinder();
  // Cylinders chosen so SSTF serves out of arrival order and the
  // swap-remove leaves the queue vector permuted.
  const std::array<int, 8> cylinders{500, 10, 900, 20, 700, 30, 400, 5};
  std::vector<int> started;
  std::vector<int> killed;
  {
    Tracked tracked;
    for (int tag = 0; tag < static_cast<int>(cylinders.size()); ++tag) {
      DiskRequest req;
      req.kind = tag % 2 ? DiskOpKind::kWrite : DiskOpKind::kRead;
      req.start_block = static_cast<std::int64_t>(cylinders[tag]) * bpc;
      req.on_start = [&started, tag](SimTime) { started.push_back(tag); };
      req.on_complete = [tracked](SimTime) {};
      req.on_power_fail = [&killed, tag, tracked](SimTime, int) {
        killed.push_back(tag);
      };
      disk.submit(std::move(req));
    }
  }
  ASSERT_EQ(Tracked::live, 16);  // two callbacks per request
  // Let three accesses finish and a fourth start.
  while (started.size() < 4 && eq.step()) {
  }
  ASSERT_EQ(started.size(), 4u);
  const int in_service = started.back();
  ASSERT_EQ(Tracked::live, 2 * 5);  // 4 queued + 1 in service

  const Disk::PowerFailReport report = disk.power_fail();
  EXPECT_EQ(report.queued_ops, 4u);
  EXPECT_EQ(report.inflight_ops, 1u);
  // Every queued request is gone with its callbacks; only the in-service
  // one survives, held by its (now stale) completion event.
  EXPECT_EQ(Tracked::live, 2);
  EXPECT_EQ(disk.queue_length(), 0u);

  std::vector<int> expected_queued;
  for (int tag = 0; tag < static_cast<int>(cylinders.size()); ++tag) {
    bool ran = false;
    for (int s : started) ran = ran || s == tag;
    if (!ran) expected_queued.push_back(tag);  // ascending = arrival order
  }
  ASSERT_EQ(killed.size(), 5u);
  EXPECT_EQ(std::vector<int>(killed.begin(), killed.end() - 1),
            expected_queued);
  EXPECT_EQ(killed.back(), in_service);  // in-flight op is killed last

  eq.run();  // the stale completion fires, does nothing, and lets go
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(killed.size(), 5u);
}

TEST(SimulatorOwnership, DestroyedMidRunWithQueuedRequests) {
  SimulationConfig config;
  config.organization = Organization::kRaid5;
  config.channel_mb_per_second = 1.0;  // slow channel: transfers queue
  WorkloadOptions wo;
  wo.scale = 0.1;
  wo.speed = 4.0;
  wo.seed = 3;
  auto trace = make_workload("trace2", wo);
  CancelToken token;
  bool saw_queues = false;
  {
    Simulator sim(config, trace->geometry());
    sim.set_cancel_token(&token);
    sim.set_progress_hook([&](const ProgressSnapshot&) {
      std::size_t disk_queued = 0;
      std::size_t channel_queued = 0;
      for (int a = 0; a < sim.arrays(); ++a) {
        const ArrayController& c = sim.controller(a);
        channel_queued += c.channel().queue_length();
        for (const auto& d : c.disks()) disk_queued += d->queue_length();
      }
      if (disk_queued > 0 && channel_queued > 0) {
        saw_queues = true;
        token.cancel(CancelReason::kClient);
      }
    });
    EXPECT_THROW(sim.run(*trace), CancelledError);
  }  // destroyed with ops queued at disks and channels
  EXPECT_TRUE(saw_queues);
}

}  // namespace
}  // namespace raidsim
