#include "trace/lru_stack.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace raidsim {

namespace {

constexpr std::size_t kWordBits = 64;
constexpr std::uint64_t kByteOnes = 0x0101010101010101ULL;
constexpr std::uint64_t kByteHighs = 0x8080808080808080ULL;

// Slots are 32-bit and lie below the slot array's capacity. The cap
// stops a whole word short of 2^32, so no live slot equals the index's
// empty mark (0xffffffff).
constexpr std::size_t kMaxSlots = (std::size_t{1} << 32) - kWordBits;

/// Slots for `touches` touches: a whole number of 64-slot words, at
/// least one and at most kMaxSlots.
std::size_t slots_for(std::size_t touches) {
  const std::size_t words =
      (std::min(touches, kMaxSlots) + kWordBits - 1) / kWordBits;
  return std::max<std::size_t>(words, 1) * kWordBits;
}

/// Whether `keys` entries fit a table of `size` at no more than 7/8 load.
bool within_load(std::size_t keys, std::size_t size) {
  return 8 * keys <= 7 * size;
}

std::size_t index_size_for(std::size_t keys) {
  // Power of two holding `keys` at no more than 7/8 load.
  std::size_t size = 16;
  while (!within_load(keys, size)) size *= 2;
  return size;
}

// Word bit twiddling in portable SWAR form: the default build targets
// baseline x86-64, where std::popcount is a library call.

/// Per-byte set-bit counts of x (each byte of the result is 0..8).
std::uint64_t byte_counts(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
}

std::size_t popcount64(std::uint64_t x) {
  return static_cast<std::size_t>((byte_counts(x) * kByteOnes) >> 56);
}

/// Bits of x strictly below bit `bit`.
std::uint64_t bits_below(std::uint64_t x, std::size_t bit) {
  return x & ((std::uint64_t{1} << bit) - 1);
}

/// Position of the set bit of rank k (0-based, from bit 0) in x, which
/// has more than k set bits.
std::size_t select_in_word(std::uint64_t x, std::size_t k) {
  assert(k < popcount64(x));
  // Byte i of `inclusive` = set bits in bytes 0..i (at most 64).
  const std::uint64_t inclusive = byte_counts(x) * kByteOnes;
  // A byte of (k + 128) - inclusive keeps its high bit iff that byte's
  // count is <= k: the bytes wholly below the target bit. The counts are
  // monotone, so those bytes are the lowest ones; count them.
  const std::uint64_t below =
      ((k * kByteOnes | kByteHighs) - inclusive) & kByteHighs;
  const std::size_t byte =
      static_cast<std::size_t>(((below >> 7) * kByteOnes) >> 56);
  const std::size_t before = ((inclusive << 8) >> (8 * byte)) & 0xff;
  auto bits = static_cast<unsigned>((x >> (8 * byte)) & 0xff);
  for (std::size_t r = k - before; r > 0; --r) bits &= bits - 1;
  return 8 * byte + static_cast<std::size_t>(std::countr_zero(bits));
}

}  // namespace

LruStack::LruStack(std::size_t initial_slots) {
  const std::size_t slots = slots_for(initial_slots);
  allocate(slots, index_size_for(slots));
}

void LruStack::reserve(std::size_t touches, std::size_t blocks) {
  if (next_slot_ != 0) return;
  // No more than kBlockLimit distinct blocks exist.
  allocate(slots_for(touches),
           index_size_for(std::min<std::size_t>(blocks, kBlockLimit)));
}

void LruStack::allocate(std::size_t slots, std::size_t index_size) {
  // Fresh vectors rather than assign(), so a reservation smaller than the
  // constructor's arrays gives their memory back.
  capacity_ = slots;
  live_bits_ = std::vector<std::uint64_t>(slots / kWordBits, 0);
  word_live_ = FenwickTree(slots / kWordBits);
  block_at_slot_ = std::vector<std::uint32_t>(slots + slots / kWordBits);
  index_ = std::vector<std::uint32_t>(index_size, kEmptySlot);
  index_mask_ = index_size - 1;
}

const std::uint32_t* LruStack::find_entry(std::int64_t block) const {
  if (block < 0 || block >= kBlockLimit) return nullptr;
  const auto key = static_cast<std::uint32_t>(block);
  std::size_t i = hash_block(key) & index_mask_;
  while (index_[i] != kEmptySlot) {
    if (block_at_slot_[index_[i]] == key) return &index_[i];
    i = (i + 1) & index_mask_;
  }
  return nullptr;
}

void LruStack::insert_slot(std::uint32_t block, std::uint32_t slot) {
  if (!within_load(count_ + 1, index_.size())) grow_table();
  std::size_t i = hash_block(block) & index_mask_;
  while (index_[i] != kEmptySlot) i = (i + 1) & index_mask_;
  index_[i] = slot;
  ++count_;
}

void LruStack::grow_table() {
  std::vector<std::uint32_t> old = std::move(index_);
  index_.assign(old.size() * 2, kEmptySlot);
  index_mask_ = index_.size() - 1;
  for (const std::uint32_t slot : old) {
    if (slot == kEmptySlot) continue;
    std::size_t i = hash_block(block_at_slot_[slot]) & index_mask_;
    while (index_[i] != kEmptySlot) i = (i + 1) & index_mask_;
    index_[i] = slot;
  }
}

void LruStack::touch(std::int64_t block) {
  assert(block >= 0 && block < kBlockLimit);
  if (next_slot_ == capacity_) compact();
  const auto slot = static_cast<std::uint32_t>(next_slot_);
  if (std::uint32_t* e = find_entry(block)) {
    // The block moves up: clear its old slot.
    const std::size_t word = *e / kWordBits;
    live_bits_[word] &= ~(std::uint64_t{1} << (*e % kWordBits));
    if (word == next_slot_ / kWordBits) {
      --open_live_;
    } else {
      word_live_.add(word, -1);
    }
    *e = slot;
  } else {
    insert_slot(static_cast<std::uint32_t>(block), slot);
  }
  block_at_slot_[slot] = static_cast<std::uint32_t>(block);
  live_bits_[slot / kWordBits] |= std::uint64_t{1} << (slot % kWordBits);
  ++open_live_;
  if (++next_slot_ % kWordBits == 0) {
    // The cursor leaves its word: the word's count enters the tree.
    word_live_.add(slot / kWordBits, static_cast<std::int64_t>(open_live_));
    open_live_ = 0;
  }
}

std::optional<std::int64_t> LruStack::at_depth(std::size_t d) const {
  const std::size_t n = count_;
  if (d >= n) return std::nullopt;
  // Depth d from the top == rank (n - d) from the bottom, 1-based.
  const std::size_t rank = n - d;
  const std::size_t in_tree = n - open_live_;
  std::size_t word;
  std::size_t k;  // 0-based rank inside the word
  if (rank > in_tree) {
    word = next_slot_ / kWordBits;
    k = rank - in_tree - 1;
  } else {
    std::int64_t within = 0;
    word = word_live_.select(static_cast<std::int64_t>(rank), &within);
    k = static_cast<std::size_t>(within - 1);
  }
  const std::size_t slot =
      word * kWordBits + select_in_word(live_bits_[word], k);
  return block_at_slot_[slot];
}

std::optional<std::size_t> LruStack::depth_of(std::int64_t block) const {
  const std::uint32_t* e = find_entry(block);
  if (!e) return std::nullopt;
  // Live slots strictly below (older than) this one; the rest are newer.
  const std::size_t word = *e / kWordBits;
  std::size_t older = popcount64(bits_below(live_bits_[word], *e % kWordBits));
  older += word == next_slot_ / kWordBits
               ? count_ - open_live_
               : static_cast<std::size_t>(
                     word_live_.prefix_sum_exclusive(word));
  return count_ - 1 - older;
}

void LruStack::compact() {
  // Pack the live slots to the bottom in stack order: slot s moves to its
  // rank, which never exceeds s, so every array is rewritten in place.
  const std::size_t n = count_;
  std::size_t new_capacity = capacity_;
  while (new_capacity < 2 * n + 16) new_capacity *= 2;
  if (new_capacity > kMaxSlots)
    throw std::length_error("LruStack: slot count exceeds its 32-bit cap");

  const std::size_t words = capacity_ / kWordBits;
  std::uint32_t* word_rank = block_at_slot_.data() + capacity_;
  std::uint32_t live = 0;
  for (std::size_t w = 0; w < words; ++w) {
    word_rank[w] = live;
    live += static_cast<std::uint32_t>(popcount64(live_bits_[w]));
  }
  assert(live == n);

  for (std::uint32_t& slot : index_) {
    if (slot == kEmptySlot) continue;
    const std::size_t word = slot / kWordBits;
    slot = word_rank[word] + static_cast<std::uint32_t>(popcount64(
                                 bits_below(live_bits_[word],
                                            slot % kWordBits)));
  }
  std::size_t rank = 0;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = live_bits_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t slot =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      block_at_slot_[rank++] = block_at_slot_[slot];
    }
  }

  capacity_ = new_capacity;
  block_at_slot_.resize(capacity_ + capacity_ / kWordBits);
  live_bits_.assign(capacity_ / kWordBits, 0);
  word_live_.reset(capacity_ / kWordBits);
  const std::size_t full_words = n / kWordBits;
  for (std::size_t w = 0; w < full_words; ++w) {
    live_bits_[w] = ~std::uint64_t{0};
    word_live_.add(w, static_cast<std::int64_t>(kWordBits));
  }
  open_live_ = n % kWordBits;
  if (open_live_ != 0)
    live_bits_[full_words] = (std::uint64_t{1} << open_live_) - 1;
  next_slot_ = n;
}

}  // namespace raidsim
