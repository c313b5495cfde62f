#pragma once

#include <cmath>
#include <cstdint>

namespace raidsim {

/// Physical location of a block on a disk surface.
struct BlockAddress {
  int cylinder = 0;
  int track = 0;        // track (surface) within the cylinder
  int sector = 0;       // first sector within the track
};

/// Time `t` into the current revolution of `rot` ms: bit for bit
/// std::fmod(t, rot), without glibc's bit-serial fmod loop. With the true
/// quotient q = floor(t / rot) the remainder t - q * rot is representable,
/// so one fma computes it exactly. The rounded t / rot can land one past
/// the true quotient either way; the remainder then falls outside
/// [0, rot) and is recomputed with the corrected quotient. A t that is
/// not positive and finite (fmod keeps the sign of a zero), a rot that is
/// not positive and finite, and quotients too large to be exact take
/// std::fmod.
inline double rotation_phase(double t, double rot) {
  const double quotient = t / rot;
  if (!(t > 0.0 && rot > 0.0 && std::isfinite(rot) && quotient < 0x1p52))
    return std::fmod(t, rot);
  double q = std::floor(quotient);
  double r = std::fma(-q, rot, t);
  if (r < 0.0) {
    q -= 1.0;
    r = std::fma(-q, rot, t);
  } else if (r >= rot) {
    q += 1.0;
    r = std::fma(-q, rot, t);
  }
  return r;
}

/// Disk drive geometry. Defaults reproduce Table 1 of the paper:
/// 5400 rpm, 1260 cylinders, 48 sectors/track, 512 B sectors, 15 platters
/// (30 recording surfaces), giving roughly 0.9 GB per drive.
struct DiskGeometry {
  int cylinders = 1260;
  int tracks_per_cylinder = 30;  // 15 platters x 2 surfaces
  int sectors_per_track = 48;
  int bytes_per_sector = 512;
  double rpm = 5400.0;
  int block_sectors = 8;  // 4 KB logical blocks

  /// One full revolution, in ms (11.11 ms at 5400 rpm).
  double rotation_ms() const { return 60000.0 / rpm; }

  /// Time for one sector to pass under the head, in ms.
  double sector_time_ms() const {
    return rotation_ms() / static_cast<double>(sectors_per_track);
  }

  int sectors_per_cylinder() const {
    return tracks_per_cylinder * sectors_per_track;
  }

  int blocks_per_track() const { return sectors_per_track / block_sectors; }

  int blocks_per_cylinder() const {
    return tracks_per_cylinder * blocks_per_track();
  }

  std::int64_t total_blocks() const {
    return static_cast<std::int64_t>(cylinders) * blocks_per_cylinder();
  }

  std::int64_t total_sectors() const {
    return static_cast<std::int64_t>(cylinders) * sectors_per_cylinder();
  }

  std::int64_t capacity_bytes() const {
    return total_sectors() * bytes_per_sector;
  }

  /// Bytes in one logical block.
  int block_bytes() const { return block_sectors * bytes_per_sector; }

  /// Map a block number to its physical address. Blocks are laid out
  /// sector-contiguously: track-by-track within a cylinder, then cylinder
  /// by cylinder (no track or cylinder skew is modelled).
  BlockAddress locate_block(std::int64_t block) const;

  /// Map an absolute sector number to its physical address.
  BlockAddress locate_sector(std::int64_t sector) const;

  /// Cylinder containing the given absolute sector.
  int cylinder_of_sector(std::int64_t sector) const {
    return static_cast<int>(sector / sectors_per_cylinder());
  }

  bool valid() const;
};

}  // namespace raidsim
