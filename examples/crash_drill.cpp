// Crash drill: catch a cached RAID5 array mid stripe-update with a
// deterministic probe, pull the plug, and compare four protection
// levels on the IDENTICAL seeded workload (the auditor and journal
// hooks cost zero simulated time, so every variant crashes inside the
// very same in-flight update):
//
//   A  no journal, no recovery      the classic RAID write hole: parity
//                                   and data disagree, silently, until a
//                                   disk failure turns it into garbage;
//   B  intent journal + replay      the NVRAM journal replays and
//                                   resyncs only the dirty stripes;
//   C  full-array resync baseline   also consistent, but walks every
//                                   parity group in the array;
//   D  volatile cache, full resync  the journal and the write cache are
//                                   wiped: parity is repaired but
//                                   acknowledged writes are simply gone.
//
// A shadow-model integrity auditor mirrors every logical write and
// counts write holes and lost writes after each run; the drill exits
// nonzero if any variant violates its guarantee.
//
// Usage: crash_drill [writes]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "array/cached_controller.hpp"
#include "crash/auditor.hpp"
#include "crash/crash_injector.hpp"
#include "util/parse_number.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace raidsim;

struct Variant {
  std::string name;
  bool journal;
  bool nvram_survives;
  bool recover;
  bool full_fallback;
};

struct Outcome {
  ShadowAuditor::Report report;
  ControllerStats stats;
  RecoveryProcess::Stats recovery;
  double crash_time = -1.0;
  std::uint64_t resync_io() const {
    return stats.resync_read_blocks + stats.resync_write_blocks;
  }
};

Outcome run_variant(const Variant& v, int writes) {
  EventQueue eq;

  ArrayController::Config cfg;
  cfg.layout.organization = Organization::kRaid5;
  cfg.layout.data_disks = 4;
  cfg.layout.data_blocks_per_disk = 3000;  // full resync must hurt
  cfg.layout.physical_blocks_per_disk = cfg.disk_geometry.total_blocks();

  CachedController::CacheConfig cache_cfg;
  // Room for the whole burst: the crash must land inside the periodic
  // destage sweep, not a cache-overflow victim writeback.
  cache_cfg.cache_bytes = 2048 * 4096;
  cache_cfg.destage_period_ms = 400.0;
  cache_cfg.intent_journal = v.journal;
  CachedController controller(eq, cfg, cache_cfg);
  ShadowAuditor auditor(controller);

  CrashInjector::Options opt;
  opt.nvram_survives_crash = v.nvram_survives;
  opt.auto_recover = v.recover;
  opt.recovery.full_resync_fallback = v.full_fallback;
  CrashInjector injector(eq, controller, opt);

  // Seeded write burst, identical across variants.
  Rng rng(0xD155C0);
  const std::int64_t capacity = controller.layout().logical_capacity();
  for (int i = 0; i < writes; ++i) {
    const std::int64_t block = rng.uniform_i64(0, capacity - 1);
    eq.schedule_at(i * 3.0, [&controller, block] {
      controller.submit(ArrayRequest{block, 1, true}, [](SimTime) {});
    });
  }

  // Probe between events: the instant a stripe update is caught half
  // landed (parity cover != disk content) schedule the crash a hair
  // later, so completions queued at this exact timestamp -- physically
  // finished writes whose power-fail durable prefix would cover them --
  // drain first; disarm if the window turns out to be such an artifact.
  Outcome out;
  bool armed = false;
  while (!controller.crashed() && eq.now() < 60000.0 && eq.step()) {
    const bool window = auditor.first_inconsistent_block() >= 0;
    if (window && !armed) {
      injector.crash_at(eq.now() + 1e-6);
      armed = true;
    } else if (!window && armed) {
      injector.disarm();
      armed = false;
    }
  }
  if (!controller.crashed()) {
    std::cerr << "drill error: workload never opened a crash window\n";
    std::exit(1);
  }
  out.crash_time = eq.now();

  // Quiesce: restart, recovery, and every surviving destage finish.
  eq.run_until(eq.now() + 30000.0);
  controller.shutdown();
  eq.run();

  out.report = auditor.audit();
  out.stats = controller.stats();
  out.recovery = injector.last_recovery();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int writes =
      argc > 1 ? parse_number_arg<int>("crash_drill", "writes", argv[1]) : 256;

  const std::vector<Variant> variants = {
      {"A  unprotected", false, true, false, false},
      {"B  intent journal", true, true, true, false},
      {"C  full-array resync", false, true, true, true},
      {"D  volatile cache", true, false, true, true},
  };

  std::cout << "Crash drill: RAID5, 4+1 disks, " << writes
            << " cached writes; plug pulled mid stripe-update\n\n";

  TablePrinter table({"variant", "crash (ms)", "write holes", "lost writes",
                      "stripes resynced", "resync I/O (blocks)",
                      "recovery (ms)"});
  std::vector<Outcome> results;
  for (const auto& v : variants) {
    const auto r = run_variant(v, writes);
    table.add_row({v.name, TablePrinter::num(r.crash_time, 1),
                   std::to_string(r.report.write_holes),
                   std::to_string(r.report.lost_writes),
                   std::to_string(r.recovery.stripes_resynced),
                   std::to_string(r.resync_io()),
                   TablePrinter::num(r.recovery.recovery_ms, 1)});
    results.push_back(r);
  }
  table.print(std::cout);

  const auto& a = results[0];
  const auto& b = results[1];
  const auto& c = results[2];
  const auto& d = results[3];

  std::cout << "\nThe crash killed " << a.stats.crash_dropped_ops
            << " in-flight disk ops and discarded "
            << a.stats.crash_discarded_write_blocks
            << " write blocks at sector granularity; "
            << a.stats.crash_aborted_host_writes
            << " stalled host writes died unanswered.\n";
  std::cout << "B opened " << b.stats.journal_intents
            << " stripe-update intents and replayed "
            << b.stats.journal_replays << " after restart, resyncing "
            << b.recovery.stripes_resynced << " dirty stripes ("
            << b.resync_io() << " blocks of I/O) vs " << c.resync_io()
            << " for the full-array walk.\n";
  std::cout << "D lost the journal AND the write cache with the power: "
            << "parity was repaired by the fallback resync, but "
            << d.report.lost_writes
            << " acknowledged writes no longer exist anywhere.\n\n";

  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "  PASS  " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  check(a.report.write_holes >= 1,
        "A: unprotected crash leaves a detectable write hole");
  check(b.report.write_holes == 0 && b.report.lost_writes == 0,
        "B: journal replay restores full consistency");
  check(b.recovery.used_journal && !b.recovery.full_resync,
        "B: recovery used the journal, not the fallback");
  check(c.report.write_holes == 0,
        "C: full-array resync also closes the hole");
  check(b.resync_io() < c.resync_io(),
        "B < C: journaled resync does strictly less I/O");
  check(d.report.write_holes == 0 && d.report.lost_writes >= 1,
        "D: wiped cache -> parity consistent but acked writes lost");
  if (failures != 0) {
    std::cout << "\n" << failures << " drill check(s) failed\n";
    return 1;
  }
  std::cout << "\nAll drill checks passed.\n";
  return 0;
}
