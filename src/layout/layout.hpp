#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/enum_names.hpp"
#include "util/inline_vec.hpp"

namespace raidsim {

/// Disk array organizations studied in the paper (Table 3).
enum class Organization {
  kBase,            // independent disks, no striping, no redundancy
  kMirror,          // mirrored pairs, shortest-seek read optimisation
  kRaid5,           // block-striped data, rotated parity
  kRaid4,           // block-striped data, dedicated parity disk
  kParityStriping,  // sequential data, striped parity areas (Gray et al.)
  kRaid10,          // extension: data striped over mirrored pairs
};

template <>
struct EnumNames<Organization> {
  static constexpr const char* noun = "organization";
  static constexpr EnumName<Organization> names[] = {
      {Organization::kBase, "Base"},     {Organization::kMirror, "Mirror"},
      {Organization::kRaid5, "RAID5"},   {Organization::kRaid4, "RAID4"},
      {Organization::kParityStriping, "ParStrip"},
      {Organization::kRaid10, "RAID10"}};
};

/// Placement of the parity areas within each disk for Parity Striping
/// (Section 4.2.3).
enum class ParityPlacement {
  kMiddleCylinders,
  kEndCylinders,
};

template <>
struct EnumNames<ParityPlacement> {
  static constexpr const char* noun = "parity placement";
  static constexpr EnumName<ParityPlacement> names[] = {
      {ParityPlacement::kMiddleCylinders, "middle"},
      {ParityPlacement::kEndCylinders, "end"}};
};

/// A contiguous physical extent on one disk of the array.
struct PhysicalExtent {
  int disk = -1;                 // disk index within the array
  std::int64_t start_block = 0;  // physical block number on that disk
  int block_count = 0;
  /// First array-local logical block this extent maps (-1 for extents
  /// without a logical identity, e.g. parity or reconstruct reads).
  std::int64_t logical_start = -1;

  bool valid() const { return disk >= 0 && block_count > 0; }
};

/// Result type of Layout::map_read. Inline capacity 4 covers every
/// mapping the paper's workloads produce (a request splits at most once
/// per striping-unit/disk boundary crossed); larger sweeps (rebuild
/// worklists, audits) spill to the heap transparently.
using ExtentList = InlineVec<PhysicalExtent, 4>;

/// Disk accesses required to apply a write to one parity group (stripe
/// row for RAID4/5, parity-area group for Parity Striping). For Base and
/// Mirror there is no parity; `parity.disk` is -1 and the writes are
/// plain.
struct StripeUpdate {
  PhysicalExtent parity;           // invalid if no parity
  ExtentList writes;               // data extents to write
  ExtentList reconstruct_reads;    // unmodified data to read
  /// true: plain data writes; parity (if any) computed from new data plus
  /// `reconstruct_reads` and written without reading the old parity.
  /// false: read-modify-write on data extents and on the parity extent.
  bool reconstruct = false;
  /// Full-stripe write: reconstruct with no reads at all.
  bool full_stripe = false;
};

/// Abstract address map of one array. Logical blocks [0, logical_capacity)
/// hold the database slice assigned to this array; the map translates
/// logical extents into per-disk physical extents and, for writes, into
/// the parity-group update plans the controller must execute.
class Layout {
 public:
  virtual ~Layout() = default;

  virtual Organization organization() const = 0;

  /// Number of data-disk equivalents (N in the paper).
  int data_disks() const { return data_disks_; }

  /// Physical disks present in the array (N, 2N, or N+1).
  virtual int total_disks() const = 0;

  /// Logical blocks addressable in this array (N * data blocks/disk).
  std::int64_t logical_capacity() const { return logical_capacity_; }

  /// Physical blocks actually occupied on each disk (data + parity);
  /// the span a rebuild must reconstruct.
  virtual std::int64_t physical_blocks_used() const {
    return data_blocks_per_disk_;
  }

  /// Translate a logical extent into physical extents, in logical order.
  /// Extents are split at disk/stripe/area boundaries and merged when
  /// physically contiguous on the same disk.
  virtual ExtentList map_read(std::int64_t logical_start,
                              int count) const = 0;

  /// Plan the disk accesses for a write to a logical extent.
  virtual std::vector<StripeUpdate> map_write(std::int64_t logical_start,
                                              int count) const = 0;

  /// Mirror twin of a disk, or -1 when the organization has no mirrors.
  virtual int mirror_of(int /*disk*/) const { return -1; }

  /// Degraded-mode support: the parity group surrounding a data extent.
  /// `member_reads` are the extents of every OTHER data member of the
  /// group(s) covering the extent's offsets (never on extent.disk);
  /// `parity` is the matching parity extent (invalid when the
  /// organization has none). Used to reconstruct data on a failed disk:
  /// a degraded read reads `member_reads` plus `parity`; a degraded
  /// write reads `member_reads` and rewrites `parity`.
  struct DegradedGroup {
    std::vector<PhysicalExtent> member_reads;
    PhysicalExtent parity;
  };
  /// Default: no redundancy (Base) -- empty plan, data is lost.
  virtual std::vector<DegradedGroup> degraded_group(
      const PhysicalExtent& /*extent*/) const {
    return {};
  }

 protected:
  Layout(int data_disks, std::int64_t data_blocks_per_disk,
         std::int64_t physical_blocks_per_disk);

  void check_extent(std::int64_t logical_start, int count) const;

  int data_disks_;
  std::int64_t data_blocks_per_disk_;      // database blocks per original disk
  std::int64_t physical_blocks_per_disk_;  // capacity of each physical disk
  std::int64_t logical_capacity_;
};

/// Base organization: N independent disks, logical block L lives on disk
/// L / B at offset L % B.
class BaseLayout : public Layout {
 public:
  BaseLayout(int data_disks, std::int64_t data_blocks_per_disk,
             std::int64_t physical_blocks_per_disk);

  Organization organization() const override { return Organization::kBase; }
  int total_disks() const override { return data_disks_; }
  ExtentList map_read(std::int64_t logical_start,
                      int count) const override;
  std::vector<StripeUpdate> map_write(std::int64_t logical_start,
                                      int count) const override;
};

/// Mirrored pairs: logical disk d maps to physical disks 2d (primary) and
/// 2d+1 (copy). Reads may be served by either (the controller applies the
/// shortest-seek optimisation); writes go to both.
///
/// The derived Raid10Layout (an extension beyond the paper's Table 3)
/// additionally stripes the data over the pairs, combining RAID5-style
/// load balancing with mirrored redundancy at mirrored cost.
class MirrorLayout : public Layout {
 public:
  MirrorLayout(int data_disks, std::int64_t data_blocks_per_disk,
               std::int64_t physical_blocks_per_disk);

  Organization organization() const override { return Organization::kMirror; }
  int total_disks() const override { return 2 * data_disks_; }
  ExtentList map_read(std::int64_t logical_start,
                      int count) const override;
  std::vector<StripeUpdate> map_write(std::int64_t logical_start,
                                      int count) const override;
  int mirror_of(int disk) const override { return disk ^ 1; }
  std::vector<DegradedGroup> degraded_group(
      const PhysicalExtent& extent) const override;
};

/// Extension: striped mirroring (RAID 1+0). Chunks of `striping_unit`
/// blocks rotate over the N mirrored pairs, so hot regions spread over
/// all arms like RAID5 while every write costs only the mirror copy (no
/// parity read-modify-write).
class Raid10Layout : public MirrorLayout {
 public:
  Raid10Layout(int data_disks, std::int64_t data_blocks_per_disk,
               std::int64_t physical_blocks_per_disk,
               int striping_unit_blocks);

  Organization organization() const override { return Organization::kRaid10; }
  ExtentList map_read(std::int64_t logical_start,
                      int count) const override;
  std::vector<StripeUpdate> map_write(std::int64_t logical_start,
                                      int count) const override;

  int striping_unit() const { return unit_; }

 private:
  int unit_;
};

/// Block-striped layouts with parity: RAID5 (rotated parity) and RAID4
/// (dedicated parity disk) share the striping machinery and differ only
/// in the parity-disk function.
class StripedParityLayout : public Layout {
 public:
  StripedParityLayout(Organization org, int data_disks,
                      std::int64_t data_blocks_per_disk,
                      std::int64_t physical_blocks_per_disk,
                      int striping_unit_blocks);

  Organization organization() const override { return org_; }
  int total_disks() const override { return data_disks_ + 1; }
  ExtentList map_read(std::int64_t logical_start,
                      int count) const override;
  std::vector<StripeUpdate> map_write(std::int64_t logical_start,
                                      int count) const override;

  std::vector<DegradedGroup> degraded_group(
      const PhysicalExtent& extent) const override;
  std::int64_t physical_blocks_used() const override { return rows_ * unit_; }

  int striping_unit() const { return unit_; }
  /// Parity disk for a stripe row (rotated for RAID5, fixed for RAID4).
  int parity_disk(std::int64_t row) const;
  /// Physical disk holding data column j (0..N-1) of a stripe row.
  int data_disk(std::int64_t row, int column) const;

 private:
  struct Chunk {
    std::int64_t row;
    int column;
    int offset;  // first block within the chunk
    int count;
    std::int64_t logical_start;
  };
  InlineVec<Chunk, 8> chunks(std::int64_t logical_start, int count) const;

  Organization org_;
  int unit_;
  std::int64_t rows_;
};

/// Parity Striping of Gray, Horst and Walker as described in Section 2.2:
/// data laid out sequentially on each disk (no interleaving); each disk
/// reserves one of N+1 equal areas for parity; the N data areas of a
/// parity group live on N distinct disks and their parity on the
/// (N+1)-st.
///
/// With `fine_grain_chunk_blocks > 0` the layout implements the paper's
/// Section 5 future-work variant: group membership (and therefore the
/// disk receiving the parity update) rotates across the array every
/// `chunk` blocks of area offset, balancing the parity-update load over
/// all N+1 disks while leaving the sequential data placement -- and thus
/// seek affinity -- untouched.
class ParityStripingLayout : public Layout {
 public:
  ParityStripingLayout(int data_disks, std::int64_t data_blocks_per_disk,
                       std::int64_t physical_blocks_per_disk,
                       ParityPlacement placement,
                       int fine_grain_chunk_blocks = 0);

  Organization organization() const override {
    return Organization::kParityStriping;
  }
  int total_disks() const override { return data_disks_ + 1; }
  ExtentList map_read(std::int64_t logical_start,
                      int count) const override;
  std::vector<StripeUpdate> map_write(std::int64_t logical_start,
                                      int count) const override;

  std::vector<DegradedGroup> degraded_group(
      const PhysicalExtent& extent) const override;
  std::int64_t physical_blocks_used() const override {
    return static_cast<std::int64_t>(data_disks_ + 1) * area_;
  }

  std::int64_t area_blocks() const { return area_; }
  ParityPlacement placement() const { return placement_; }
  /// Physical area slot (0..N) occupied by the parity area on every disk.
  int parity_slot() const { return parity_slot_; }
  /// Parity group of data area index k (0..N-1) on disk i (classic mode).
  int group_of(int disk, int area_index) const;
  /// Fine-grained mode: parity group of (disk, area) for the chunk
  /// containing area offset `offset`, and the disk hosting a group's
  /// parity at that offset.
  int group_of_at(int disk, int area_index, std::int64_t offset) const;
  int parity_disk_of_group_at(int group, std::int64_t offset) const;
  /// Physical area slot of data area index k on any disk.
  int physical_slot(int area_index) const;
  int fine_grain_chunk() const { return fine_chunk_; }

 private:
  struct Piece {
    int disk;
    int area_index;  // data area index 0..N-1
    std::int64_t offset;
    int count;
    std::int64_t logical_start;
  };
  InlineVec<Piece, 8> pieces(std::int64_t logical_start, int count) const;

  std::int64_t area_;
  ParityPlacement placement_;
  int parity_slot_;
  int fine_chunk_;  // 0 = classic parity striping
};

/// Configuration needed to build a layout.
struct LayoutConfig {
  Organization organization = Organization::kRaid5;
  int data_disks = 10;  // N
  std::int64_t data_blocks_per_disk = 226000;
  std::int64_t physical_blocks_per_disk = 226800;
  int striping_unit_blocks = 1;
  ParityPlacement parity_placement = ParityPlacement::kMiddleCylinders;
  /// Parity Striping only: > 0 enables fine-grained parity rotation with
  /// the given chunk size in blocks (Section 5 future work).
  int parity_fine_grain_chunk_blocks = 0;
};

std::unique_ptr<Layout> make_layout(const LayoutConfig& config);

}  // namespace raidsim
