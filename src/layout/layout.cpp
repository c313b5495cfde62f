#include "layout/layout.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace raidsim {

Layout::Layout(int data_disks, std::int64_t data_blocks_per_disk,
               std::int64_t physical_blocks_per_disk)
    : data_disks_(data_disks),
      data_blocks_per_disk_(data_blocks_per_disk),
      physical_blocks_per_disk_(physical_blocks_per_disk),
      logical_capacity_(static_cast<std::int64_t>(data_disks) *
                        data_blocks_per_disk) {
  if (data_disks < 1) throw std::invalid_argument("Layout: data_disks < 1");
  if (data_blocks_per_disk < 1 || physical_blocks_per_disk < 1)
    throw std::invalid_argument("Layout: non-positive block counts");
}

void Layout::check_extent(std::int64_t logical_start, int count) const {
  if (logical_start < 0 || count < 1 ||
      logical_start + count > logical_capacity_)
    throw std::out_of_range("Layout: logical extent out of range");
}

namespace {

/// Append `ext` to `out`, merging with the previous extent when the two
/// are physically contiguous on the same disk.
void append_extent(ExtentList& out, PhysicalExtent ext) {
  if (!out.empty()) {
    auto& prev = out.back();
    if (prev.disk == ext.disk &&
        prev.start_block + prev.block_count == ext.start_block &&
        prev.logical_start >= 0 &&
        prev.logical_start + prev.block_count == ext.logical_start) {
      prev.block_count += ext.block_count;
      return;
    }
  }
  out.push_back(ext);
}

}  // namespace

// ---------------------------------------------------------------- Base

BaseLayout::BaseLayout(int data_disks, std::int64_t data_blocks_per_disk,
                       std::int64_t physical_blocks_per_disk)
    : Layout(data_disks, data_blocks_per_disk, physical_blocks_per_disk) {
  if (data_blocks_per_disk > physical_blocks_per_disk)
    throw std::invalid_argument("BaseLayout: database exceeds disk capacity");
}

ExtentList BaseLayout::map_read(std::int64_t logical_start,
                                                 int count) const {
  check_extent(logical_start, count);
  ExtentList out;
  std::int64_t pos = logical_start;
  int remaining = count;
  while (remaining > 0) {
    const auto disk = static_cast<int>(pos / data_blocks_per_disk_);
    const std::int64_t offset = pos % data_blocks_per_disk_;
    const int take = static_cast<int>(
        std::min<std::int64_t>(remaining, data_blocks_per_disk_ - offset));
    append_extent(out, PhysicalExtent{disk, offset, take, pos});
    pos += take;
    remaining -= take;
  }
  return out;
}

std::vector<StripeUpdate> BaseLayout::map_write(std::int64_t logical_start,
                                                int count) const {
  std::vector<StripeUpdate> out;
  for (const auto& ext : map_read(logical_start, count)) {
    StripeUpdate update;
    update.writes.push_back(ext);
    update.reconstruct = true;
    update.full_stripe = true;  // plain write, no reads
    out.push_back(std::move(update));
  }
  return out;
}

// -------------------------------------------------------------- Mirror

MirrorLayout::MirrorLayout(int data_disks, std::int64_t data_blocks_per_disk,
                           std::int64_t physical_blocks_per_disk)
    : Layout(data_disks, data_blocks_per_disk, physical_blocks_per_disk) {
  if (data_blocks_per_disk > physical_blocks_per_disk)
    throw std::invalid_argument("MirrorLayout: database exceeds disk capacity");
}

ExtentList MirrorLayout::map_read(std::int64_t logical_start,
                                                   int count) const {
  check_extent(logical_start, count);
  ExtentList out;
  std::int64_t pos = logical_start;
  int remaining = count;
  while (remaining > 0) {
    const auto ldisk = static_cast<int>(pos / data_blocks_per_disk_);
    const std::int64_t offset = pos % data_blocks_per_disk_;
    const int take = static_cast<int>(
        std::min<std::int64_t>(remaining, data_blocks_per_disk_ - offset));
    append_extent(out, PhysicalExtent{2 * ldisk, offset, take, pos});
    pos += take;
    remaining -= take;
  }
  return out;
}

std::vector<StripeUpdate> MirrorLayout::map_write(std::int64_t logical_start,
                                                  int count) const {
  std::vector<StripeUpdate> out;
  for (const auto& ext : map_read(logical_start, count)) {
    StripeUpdate update;
    update.writes.push_back(ext);
    update.writes.push_back(PhysicalExtent{mirror_of(ext.disk),
                                           ext.start_block, ext.block_count,
                                           ext.logical_start});
    update.reconstruct = true;
    update.full_stripe = true;
    out.push_back(std::move(update));
  }
  return out;
}

std::vector<Layout::DegradedGroup> MirrorLayout::degraded_group(
    const PhysicalExtent& extent) const {
  DegradedGroup group;
  group.member_reads.push_back(PhysicalExtent{mirror_of(extent.disk),
                                              extent.start_block,
                                              extent.block_count,
                                              extent.logical_start});
  return {group};
}

// -------------------------------------------------------------- RAID10

Raid10Layout::Raid10Layout(int data_disks, std::int64_t data_blocks_per_disk,
                           std::int64_t physical_blocks_per_disk,
                           int striping_unit_blocks)
    : MirrorLayout(data_disks, data_blocks_per_disk,
                   physical_blocks_per_disk),
      unit_(striping_unit_blocks) {
  if (unit_ < 1) throw std::invalid_argument("Raid10Layout: unit < 1");
  const std::int64_t rows =
      (data_blocks_per_disk_ + unit_ - 1) / unit_;
  if (rows * unit_ > physical_blocks_per_disk_)
    throw std::invalid_argument(
        "Raid10Layout: database exceeds disk capacity");
}

ExtentList Raid10Layout::map_read(std::int64_t logical_start,
                                                   int count) const {
  check_extent(logical_start, count);
  ExtentList out;
  std::int64_t pos = logical_start;
  int remaining = count;
  while (remaining > 0) {
    const std::int64_t chunk = pos / unit_;
    const int offset = static_cast<int>(pos % unit_);
    const int take = std::min(remaining, unit_ - offset);
    const auto pair = static_cast<int>(chunk % data_disks_);
    const std::int64_t row = chunk / data_disks_;
    append_extent(out, PhysicalExtent{2 * pair, row * unit_ + offset, take,
                                      pos});
    pos += take;
    remaining -= take;
  }
  return out;
}

std::vector<StripeUpdate> Raid10Layout::map_write(std::int64_t logical_start,
                                                  int count) const {
  std::vector<StripeUpdate> out;
  for (const auto& ext : map_read(logical_start, count)) {
    StripeUpdate update;
    update.writes.push_back(ext);
    update.writes.push_back(PhysicalExtent{mirror_of(ext.disk),
                                           ext.start_block, ext.block_count,
                                           ext.logical_start});
    update.reconstruct = true;
    update.full_stripe = true;
    out.push_back(std::move(update));
  }
  return out;
}

// ------------------------------------------------- RAID4 / RAID5 (striped)

StripedParityLayout::StripedParityLayout(Organization org, int data_disks,
                                         std::int64_t data_blocks_per_disk,
                                         std::int64_t physical_blocks_per_disk,
                                         int striping_unit_blocks)
    : Layout(data_disks, data_blocks_per_disk, physical_blocks_per_disk),
      org_(org),
      unit_(striping_unit_blocks) {
  if (org != Organization::kRaid4 && org != Organization::kRaid5)
    throw std::invalid_argument("StripedParityLayout: bad organization");
  if (unit_ < 1) throw std::invalid_argument("StripedParityLayout: unit < 1");
  rows_ = (data_blocks_per_disk_ + unit_ - 1) / unit_;
  if (rows_ * unit_ > physical_blocks_per_disk_)
    throw std::invalid_argument(
        "StripedParityLayout: database exceeds disk capacity");
}

int StripedParityLayout::parity_disk(std::int64_t row) const {
  if (org_ == Organization::kRaid4) return data_disks_;
  return data_disks_ - static_cast<int>(row % (data_disks_ + 1));
}

int StripedParityLayout::data_disk(std::int64_t row, int column) const {
  const int p = parity_disk(row);
  return column < p ? column : column + 1;
}

InlineVec<StripedParityLayout::Chunk, 8> StripedParityLayout::chunks(
    std::int64_t logical_start, int count) const {
  InlineVec<Chunk, 8> out;
  std::int64_t pos = logical_start;
  int remaining = count;
  while (remaining > 0) {
    const std::int64_t chunk_index = pos / unit_;
    const int offset = static_cast<int>(pos % unit_);
    const int take = std::min(remaining, unit_ - offset);
    out.push_back(Chunk{chunk_index / data_disks_,
                        static_cast<int>(chunk_index % data_disks_), offset,
                        take, pos});
    pos += take;
    remaining -= take;
  }
  return out;
}

ExtentList StripedParityLayout::map_read(
    std::int64_t logical_start, int count) const {
  check_extent(logical_start, count);
  ExtentList out;
  for (const auto& ch : chunks(logical_start, count)) {
    append_extent(out, PhysicalExtent{data_disk(ch.row, ch.column),
                                      ch.row * unit_ + ch.offset, ch.count,
                                      ch.logical_start});
  }
  return out;
}

std::vector<StripeUpdate> StripedParityLayout::map_write(
    std::int64_t logical_start, int count) const {
  check_extent(logical_start, count);
  const auto all = chunks(logical_start, count);
  std::vector<StripeUpdate> out;

  std::size_t i = 0;
  while (i < all.size()) {
    // Collect the chunks belonging to one stripe row.
    std::size_t j = i;
    while (j < all.size() && all[j].row == all[i].row) ++j;
    const std::int64_t row = all[i].row;

    StripeUpdate update;
    int modified_blocks = 0;
    int lo = unit_;
    int hi = 0;
    for (std::size_t k = i; k < j; ++k) {
      const auto& ch = all[k];
      modified_blocks += ch.count;
      lo = std::min(lo, ch.offset);
      hi = std::max(hi, ch.offset + ch.count);
      update.writes.push_back(PhysicalExtent{data_disk(row, ch.column),
                                             row * unit_ + ch.offset, ch.count,
                                             ch.logical_start});
    }
    // The chunks of one row cover consecutive columns (the logical
    // extent is contiguous, so chunk indices -- and hence columns --
    // increase by one within the row): touched columns form the range
    // [first_col, first_col + chunk count).
    const int first_col = all[i].column;
    const int last_col = all[j - 1].column;

    const int row_width = data_disks_ * unit_;
    update.full_stripe = (modified_blocks == row_width);
    // Paper, Section 3.3: read old data and parity when updating less
    // than half a stripe; otherwise reconstruct the parity from the
    // blocks not being written.
    update.reconstruct = update.full_stripe || 2 * modified_blocks >= row_width;

    update.parity = PhysicalExtent{parity_disk(row), row * unit_ + lo, hi - lo};

    if (update.reconstruct && !update.full_stripe) {
      // Read the touched offset span from every untouched column.
      // (Partially-touched columns are treated as fully modified; multi-
      // block writes are <2% of OLTP requests, so the approximation has
      // negligible effect on timing.)
      for (int col = 0; col < data_disks_; ++col) {
        if (col >= first_col && col <= last_col) continue;
        update.reconstruct_reads.push_back(PhysicalExtent{
            data_disk(row, col), row * unit_ + lo, hi - lo});
      }
    }
    out.push_back(std::move(update));
    i = j;
  }
  return out;
}

std::vector<Layout::DegradedGroup> StripedParityLayout::degraded_group(
    const PhysicalExtent& extent) const {
  // Split the extent at stripe-row boundaries; each row contributes the
  // other N-1 data chunks plus the parity chunk at the same offsets.
  std::vector<DegradedGroup> out;
  std::int64_t pbn = extent.start_block;
  int remaining = extent.block_count;
  while (remaining > 0) {
    const std::int64_t row = pbn / unit_;
    const int offset = static_cast<int>(pbn % unit_);
    const int take = std::min(remaining, unit_ - offset);
    DegradedGroup group;
    const int p = parity_disk(row);
    for (int col = 0; col < data_disks_; ++col) {
      const int disk = data_disk(row, col);
      if (disk == extent.disk) continue;
      group.member_reads.push_back(
          PhysicalExtent{disk, row * unit_ + offset, take});
    }
    if (extent.disk != p)
      group.parity = PhysicalExtent{p, row * unit_ + offset, take};
    out.push_back(std::move(group));
    pbn += take;
    remaining -= take;
  }
  return out;
}

// ------------------------------------------------------ Parity Striping

ParityStripingLayout::ParityStripingLayout(
    int data_disks, std::int64_t data_blocks_per_disk,
    std::int64_t physical_blocks_per_disk, ParityPlacement placement,
    int fine_grain_chunk_blocks)
    : Layout(data_disks, data_blocks_per_disk, physical_blocks_per_disk),
      placement_(placement),
      fine_chunk_(fine_grain_chunk_blocks) {
  if (fine_chunk_ < 0)
    throw std::invalid_argument("ParityStripingLayout: negative chunk");
  const int areas = data_disks_ + 1;
  area_ = (data_blocks_per_disk_ + areas - 1) / areas;  // ceil
  if (area_ * areas > physical_blocks_per_disk_)
    throw std::invalid_argument(
        "ParityStripingLayout: database exceeds disk capacity");
  parity_slot_ = placement == ParityPlacement::kMiddleCylinders
                     ? areas / 2
                     : areas - 1;
}

int ParityStripingLayout::physical_slot(int area_index) const {
  assert(area_index >= 0 && area_index < data_disks_);
  return area_index < parity_slot_ ? area_index : area_index + 1;
}

int ParityStripingLayout::group_of(int disk, int area_index) const {
  assert(disk >= 0 && disk <= data_disks_);
  assert(area_index >= 0 && area_index < data_disks_);
  return area_index < disk ? area_index : area_index + 1;
}

int ParityStripingLayout::group_of_at(int disk, int area_index,
                                      std::int64_t offset) const {
  if (fine_chunk_ == 0) return group_of(disk, area_index);
  // For chunk c, disk i hosts the parity of group (i - c) mod (N+1); its
  // N data areas enumerate the remaining groups.
  const int m = data_disks_ + 1;
  const auto chunk = offset / fine_chunk_;
  const int hosting =
      static_cast<int>(((disk - chunk) % m + m) % m);
  return area_index < hosting ? area_index : area_index + 1;
}

int ParityStripingLayout::parity_disk_of_group_at(int group,
                                                  std::int64_t offset) const {
  if (fine_chunk_ == 0) return group;
  const int m = data_disks_ + 1;
  const auto chunk = offset / fine_chunk_;
  return static_cast<int>(((group + chunk) % m + m) % m);
}

InlineVec<ParityStripingLayout::Piece, 8> ParityStripingLayout::pieces(
    std::int64_t logical_start, int count) const {
  InlineVec<Piece, 8> out;
  const std::int64_t per_disk = static_cast<std::int64_t>(data_disks_) * area_;
  std::int64_t pos = logical_start;
  int remaining = count;
  while (remaining > 0) {
    const auto disk = static_cast<int>(pos / per_disk);
    const std::int64_t within = pos % per_disk;
    const auto area_index = static_cast<int>(within / area_);
    const std::int64_t offset = within % area_;
    std::int64_t room = area_ - offset;
    if (fine_chunk_ > 0) {
      // Keep each piece within one parity-rotation chunk.
      room = std::min<std::int64_t>(room,
                                    fine_chunk_ - offset % fine_chunk_);
    }
    const int take =
        static_cast<int>(std::min<std::int64_t>(remaining, room));
    out.push_back(Piece{disk, area_index, offset, take, pos});
    pos += take;
    remaining -= take;
  }
  return out;
}

ExtentList ParityStripingLayout::map_read(
    std::int64_t logical_start, int count) const {
  check_extent(logical_start, count);
  ExtentList out;
  for (const auto& piece : pieces(logical_start, count)) {
    append_extent(
        out, PhysicalExtent{
                 piece.disk,
                 static_cast<std::int64_t>(physical_slot(piece.area_index)) *
                         area_ +
                     piece.offset,
                 piece.count, piece.logical_start});
  }
  return out;
}

std::vector<StripeUpdate> ParityStripingLayout::map_write(
    std::int64_t logical_start, int count) const {
  check_extent(logical_start, count);
  std::vector<StripeUpdate> out;
  for (const auto& piece : pieces(logical_start, count)) {
    StripeUpdate update;
    update.writes.push_back(PhysicalExtent{
        piece.disk,
        static_cast<std::int64_t>(physical_slot(piece.area_index)) * area_ +
            piece.offset,
        piece.count, piece.logical_start});
    const int group =
        group_of_at(piece.disk, piece.area_index, piece.offset);
    const int parity_disk = parity_disk_of_group_at(group, piece.offset);
    update.parity = PhysicalExtent{
        parity_disk,
        static_cast<std::int64_t>(parity_slot_) * area_ + piece.offset,
        piece.count};
    update.reconstruct = false;  // always small relative to the group width
    update.full_stripe = false;
    out.push_back(std::move(update));
  }
  return out;
}

std::vector<Layout::DegradedGroup> ParityStripingLayout::degraded_group(
    const PhysicalExtent& extent) const {
  // Recover (area index, offset) from the physical position, split at
  // fine-grain chunk boundaries when rotation is enabled, and emit the
  // other group members plus the group parity.
  std::vector<DegradedGroup> out;
  std::int64_t pbn = extent.start_block;
  int remaining = extent.block_count;
  while (remaining > 0) {
    const auto slot = static_cast<int>(pbn / area_);
    const std::int64_t offset = pbn % area_;
    std::int64_t room = area_ - offset;
    if (fine_chunk_ > 0)
      room = std::min<std::int64_t>(room,
                                    fine_chunk_ - offset % fine_chunk_);
    const int take =
        static_cast<int>(std::min<std::int64_t>(remaining, room));

    DegradedGroup group;
    const bool extent_is_parity = (slot == parity_slot_);
    int g;
    if (extent_is_parity) {
      // Rebuilding a lost parity area: recompute it from all N data
      // members of the group whose parity this disk hosts here.
      if (fine_chunk_ == 0) {
        g = extent.disk;
      } else {
        const int m = data_disks_ + 1;
        const auto chunk = offset / fine_chunk_;
        g = static_cast<int>(((extent.disk - chunk) % m + m) % m);
      }
    } else {
      const int area_index = slot < parity_slot_ ? slot : slot - 1;
      g = group_of_at(extent.disk, area_index, offset);
    }
    const int parity_host = parity_disk_of_group_at(g, offset);
    for (int disk = 0; disk <= data_disks_; ++disk) {
      if (disk == extent.disk || disk == parity_host) continue;
      // Member data area of group g on `disk` at this offset chunk.
      int k = -1;
      for (int candidate = 0; candidate < data_disks_; ++candidate) {
        if (group_of_at(disk, candidate, offset) == g) {
          k = candidate;
          break;
        }
      }
      if (k < 0) continue;  // disk holds no data of this group here
      group.member_reads.push_back(PhysicalExtent{
          disk,
          static_cast<std::int64_t>(physical_slot(k)) * area_ + offset,
          take});
    }
    if (!extent_is_parity)
      group.parity = PhysicalExtent{
          parity_host,
          static_cast<std::int64_t>(parity_slot_) * area_ + offset, take};
    out.push_back(std::move(group));
    pbn += take;
    remaining -= take;
  }
  return out;
}

// -------------------------------------------------------------- factory

std::unique_ptr<Layout> make_layout(const LayoutConfig& config) {
  switch (config.organization) {
    case Organization::kBase:
      return std::make_unique<BaseLayout>(config.data_disks,
                                          config.data_blocks_per_disk,
                                          config.physical_blocks_per_disk);
    case Organization::kMirror:
      return std::make_unique<MirrorLayout>(config.data_disks,
                                            config.data_blocks_per_disk,
                                            config.physical_blocks_per_disk);
    case Organization::kRaid4:
    case Organization::kRaid5:
      return std::make_unique<StripedParityLayout>(
          config.organization, config.data_disks, config.data_blocks_per_disk,
          config.physical_blocks_per_disk, config.striping_unit_blocks);
    case Organization::kParityStriping:
      return std::make_unique<ParityStripingLayout>(
          config.data_disks, config.data_blocks_per_disk,
          config.physical_blocks_per_disk, config.parity_placement,
          config.parity_fine_grain_chunk_blocks);
    case Organization::kRaid10:
      return std::make_unique<Raid10Layout>(
          config.data_disks, config.data_blocks_per_disk,
          config.physical_blocks_per_disk, config.striping_unit_blocks);
  }
  throw std::invalid_argument("make_layout: unknown organization");
}

}  // namespace raidsim
