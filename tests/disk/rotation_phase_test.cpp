// rotation_phase (disk/geometry.hpp) replaces std::fmod on the disk
// model's rotational-latency path; it must return fmod's result bit for
// bit, or every simulated latency (and every golden hash) moves.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "disk/geometry.hpp"
#include "util/rng.hpp"

namespace raidsim {
namespace {

/// Compares rotation_phase with std::fmod over many (t, rot) pairs,
/// reporting the first few mismatches.
class FmodComparison {
 public:
  void check(double t, double rot) {
    ++checked_;
    const double got = rotation_phase(t, rot);
    const double want = std::fmod(t, rot);
    if (std::bit_cast<std::uint64_t>(got) ==
        std::bit_cast<std::uint64_t>(want))
      return;
    if (++mismatches_ <= 5) {
      ADD_FAILURE() << std::hexfloat << "t=" << t << " rot=" << rot
                    << ": got " << got << ", fmod gives " << want;
    }
  }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t mismatches() const { return mismatches_; }

 private:
  std::uint64_t checked_ = 0;
  std::uint64_t mismatches_ = 0;
};

TEST(RotationPhase, MatchesFmodBitForBit) {
  constexpr double kMaxT = 1e8;  // ms, ~28 hours of simulated time
  constexpr double kInf = std::numeric_limits<double>::infinity();
  FmodComparison cmp;
  Rng rng(5400);
  for (const double rpm : {3600.0, 5400.0, 7200.0}) {
    DiskGeometry g;
    g.rpm = rpm;
    const double rot = g.rotation_ms();
    cmp.check(0.0, rot);
    cmp.check(rot, rot);
    // Multiples of rot, where t / rot rounds onto or across an integer,
    // and their neighbours on both sides.
    for (int i = 0; i < 65000; ++i) {
      const double k = i < 1000 ? static_cast<double>(i)
                                : std::floor(rng.uniform() * (kMaxT / rot));
      const double t = k * rot;
      cmp.check(t, rot);
      cmp.check(std::nextafter(t, 0.0), rot);
      cmp.check(std::nextafter(t, kInf), rot);
    }
    // Arbitrary times, over the whole range and within the first
    // hundred revolutions.
    for (int i = 0; i < 100000; ++i) cmp.check(rng.uniform() * kMaxT, rot);
    for (int i = 0; i < 50000; ++i)
      cmp.check(rng.uniform() * 100.0 * rot, rot);
    // Sector boundaries, the targets rotational latency is measured to.
    for (int s = 0; s < g.sectors_per_track; ++s) {
      const double t = static_cast<double>(s) * g.sector_time_ms();
      cmp.check(t, rot);
      cmp.check(t + 1e6 * rot, rot);
    }
  }
  EXPECT_EQ(cmp.mismatches(), 0u) << "of " << cmp.checked() << " pairs";
  EXPECT_GE(cmp.checked(), 1'000'000u);
}

TEST(RotationPhase, FallsBackToFmodOutsideItsDomain) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  FmodComparison cmp;
  const double rot = DiskGeometry{}.rotation_ms();
  for (const double t : {-0.0, -1.0, -rot, -1e8, 1e300, 0x1p60, kInf, -kInf})
    cmp.check(t, rot);
  for (const double r : {-rot, 0.0, kInf, 5e-324}) {
    cmp.check(0.0, r);
    cmp.check(7.5, r);
  }
  // NaN inputs take std::fmod too, so even the NaN's bits agree.
  cmp.check(kNan, rot);
  cmp.check(1.0, kNan);
  EXPECT_EQ(cmp.mismatches(), 0u) << "of " << cmp.checked() << " pairs";
}

}  // namespace
}  // namespace raidsim
