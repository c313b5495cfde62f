#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/fenwick.hpp"

namespace raidsim {

/// LRU stack with O(log n) depth queries, used by the synthetic trace
/// generator to realise a target stack-distance distribution (the
/// standard model of temporal locality: an access at stack distance d
/// hits in any LRU cache of size > d).
///
/// The layout follows the generator's traffic, where most touches insert
/// a block never seen before:
///
///  * Slots. Every touch takes the next timestamp slot, so slot order is
///    recency order. Live slots are one bit each in a bitmap, and a
///    FenwickTree over 64-slot words counts the live slots per word:
///    "the block at depth d" is a Fenwick descent over words (64x
///    smaller than one entry per slot) and a select inside one word. The
///    word the slot cursor is filling is counted apart and enters the
///    tree when the cursor leaves it, so an insert never updates the
///    tree.
///  * Index. block -> slot is an open-addressed table of bare 4-byte
///    slots (linear probing, grown at 7/8 load). An entry stores no key:
///    block_at_slot_ already holds the block its slot names, so a probe
///    compares that block with the wanted one. A reuse touch finds it in
///    cache (at_depth has just read it); only a probe for a fresh block
///    pays a second miss per live entry it passes. The table is a whole
///    number of 8-entry groups, any number of them: a block's 8-block
///    group (block / 8) is hashed to 32 bits (splitmix64 finalizer) and
///    scaled to the group count by multiply-shift, and the block's
///    position in its group picks the entry. Each aligned run of 8
///    consecutive blocks thus lands in one 32-byte stretch of the table:
///    the generator touches sequential runs (multiblock requests,
///    sequential fresh accesses), and a run then shares its cache lines.
///    Entries are never erased (touch only inserts or moves), so the
///    table needs no tombstones.
///  * Sizing. reserve() sizes an empty stack once for the distinct blocks
///    it will hold: the index to the fewest groups that hold them at no
///    more than 7/8 load, and the slot array to those blocks plus a
///    quarter of the index as slack (a multiple of 64 slots). A stack
///    sized for at least the blocks it gets never grows either array.
///  * Compaction. When the cursor reaches the end of the slot array, the
///    live slots are packed to the bottom in stack order: one sequential
///    pass over the index maps each entry's slot to its rank (word prefix
///    count + popcount), with no re-probe per block. The packed stack
///    stays in the same array while that leaves a quarter of its live
///    slots free; a stack holding no more than its reserved blocks
///    always does, since its slack is at least 2/7 of them. Otherwise
///    (fallback) the slot
///    array doubles until it holds at least 2n + 16 slots, giving
///    amortised O(log n) per operation. Likewise the index doubles when
///    it would pass 7/8 load.
///
/// Blocks and slots are 32-bit: block numbers must lie in
/// [0, kBlockLimit), and the slot array stops short of the all-ones
/// slot, which marks an empty index entry.
class LruStack {
 public:
  /// Exclusive bound on block numbers (32-bit, all-ones excluded).
  static constexpr std::int64_t kBlockLimit = 0xffffffff;

  /// `initial_slots` is rounded up to a multiple of 64 (at least 64).
  explicit LruStack(std::size_t initial_slots = 64);

  /// Size an empty stack for at most `blocks` distinct blocks, replacing
  /// its arrays, so that it grows its index only at block `blocks + 1`
  /// and its slot array only while it holds more than `blocks` blocks.
  /// A no-op once the stack has been touched.
  void reserve(std::size_t blocks);

  /// Insert `block` at the top (most recently used), moving it if present.
  void touch(std::int64_t block);

  /// Block at depth d (0 = most recent). nullopt when d >= size().
  std::optional<std::int64_t> at_depth(std::size_t d) const;

  /// Depth of `block`, or nullopt when absent.
  std::optional<std::size_t> depth_of(std::int64_t block) const;

  bool contains(std::int64_t block) const {
    return find_entry(block) != nullptr;
  }

  std::size_t size() const { return count_; }

  /// Compactions so far, in place or growing the slot array.
  std::size_t compactions() const { return compactions_; }

  /// Bytes held by the slot array, its bitmap and word tree, and the
  /// index.
  std::size_t memory_bytes() const;

 private:
  /// An index entry is the slot of its block; no live slot is all-ones.
  static constexpr std::uint32_t kEmptySlot = 0xffffffff;

  /// First entry of `block`'s probe run: the 32-bit hash (splitmix64
  /// finalizer) of its 8-block group scaled to the table's group count,
  /// then the block's position in its group.
  std::size_t home_entry(std::uint32_t block) const {
    std::uint64_t x = block >> 3;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    const std::uint64_t group =
        (((x ^ (x >> 31)) >> 32) * index_groups_) >> 32;
    return static_cast<std::size_t>(group) * 8 + (block & 7);
  }

  /// The entry after `i`, wrapping at the end of the table.
  std::size_t next_entry(std::size_t i) const {
    return ++i == index_.size() ? 0 : i;
  }

  /// Index entry (the slot) of `block`, or nullptr when absent.
  const std::uint32_t* find_entry(std::int64_t block) const;
  std::uint32_t* find_entry(std::int64_t block) {
    return const_cast<std::uint32_t*>(
        static_cast<const LruStack*>(this)->find_entry(block));
  }
  /// Index an absent block at `slot` (doubling the table past 7/8 load).
  void insert_slot(std::uint32_t block, std::uint32_t slot);
  void grow_table();

  void compact();

  /// Allocate empty arrays for `slots` slots (a multiple of 64) and an
  /// index of `index_size` entries (a multiple of 8).
  void allocate(std::size_t slots, std::size_t index_size);

  std::size_t capacity_ = 0;    // slots; a multiple of 64, at least 64
  std::size_t next_slot_ = 0;   // cursor: the slot the next touch takes
  std::size_t open_live_ = 0;   // live slots in the cursor's word
  std::vector<std::uint64_t> live_bits_;  // bit s % 64 of word s / 64
  FenwickTree word_live_;  // live slots per word below the cursor's
  // One block per slot, then capacity_ / 64 entries of compaction
  // scratch (the rank of each word's first slot), so a compaction that
  // does not grow the slot array allocates nothing.
  std::vector<std::uint32_t> block_at_slot_;

  std::vector<std::uint32_t> index_;  // slots; 8 entries per group
  std::uint64_t index_groups_ = 0;
  std::size_t count_ = 0;
  std::size_t compactions_ = 0;
};

}  // namespace raidsim
