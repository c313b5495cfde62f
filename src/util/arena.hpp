#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <thread>
#include <utility>
#include <vector>

namespace raidsim {

class OpArena;
template <typename T>
class OpRef;

namespace op_detail {

inline constexpr std::size_t kClasses = 6;
/// Block sizes *including* the 16-byte OpHeader. All multiples of 16 so
/// every payload inherits max_align_t alignment from the slab.
inline constexpr std::array<std::size_t, kClasses> kClassBytes{
    64, 128, 256, 512, 768, 1024};
/// Slab granularity: one global-heap acquisition buys this many bytes of
/// bump space, so steady state never touches ::operator new.
inline constexpr std::size_t kSlabBytes = std::size_t{1} << 16;

/// Smallest class whose block fits `total` bytes; kClasses == oversize
/// (block served directly from the heap).
constexpr std::size_t class_for(std::size_t total) {
  for (std::size_t i = 0; i < kClasses; ++i)
    if (total <= kClassBytes[i]) return i;
  return kClasses;
}

inline constexpr std::uint16_t kFlagHeap = 0x1;  // oversize heap fallback

/// 16-byte header preceding every op-state payload. The refcount is a
/// plain counter: no atomic RMW per OpRef copy.
struct OpHeader {
  OpArena* arena;
  std::uint32_t refs;
  std::uint16_t cls;
  std::uint16_t flags;
};
static_assert(sizeof(OpHeader) == 16, "OpRef payload alignment depends on this");
static_assert(alignof(OpHeader) <= alignof(std::max_align_t));

void retain(OpHeader* h) noexcept;
bool release(OpHeader* h) noexcept;
void free_raw(OpHeader* h) noexcept;

}  // namespace op_detail

/// Per-engine allocator for op state. Owned by the EventQueue (one per
/// shard of a Simulator), so every op allocated against an
/// engine is freed before that engine's arena dies, and no thread_local
/// lookup sits on the alloc path. Blocks are bump-allocated from
/// size-class slabs and recycled through intrusive per-class free lists
/// (a freed block's first 8 bytes become the next pointer). Slabs are
/// retained across reset(), so a reused engine reaches steady state with
/// zero further global-heap traffic -- heap_allocations() counts exactly
/// the acquisitions that do happen (slabs + oversize fallbacks) so the
/// perf harness can assert the steady-state count stays flat.
///
/// Thread ownership: the arena is deliberately non-atomic, which is
/// only sound because an engine's ops live and die on one shard thread.
/// Debug builds enforce that: bind_owner()/release_owner() scope the
/// owning thread (Simulator binds around run_shard), and every
/// alloc/free/refcount op asserts the caller is the owner -- permissively
/// passing while unbound, which covers main-thread construction and
/// post-join teardown.
class OpArena {
 public:
  OpArena() = default;
  OpArena(const OpArena&) = delete;
  OpArena& operator=(const OpArena&) = delete;
  ~OpArena() {
    for (auto& c : classes_)
      for (char* slab : c.slabs) ::operator delete(slab);
  }

  /// Global-heap acquisitions made through this arena: slab grabs and
  /// oversize fallbacks. The perf harness asserts the delta over a
  /// steady-state segment is zero.
  std::uint64_t heap_allocations() const { return heap_allocations_; }

  /// Number of retained slabs across all classes (introspection/tests).
  std::size_t slab_count() const {
    std::size_t n = 0;
    for (const auto& c : classes_) n += c.slabs.size();
    return n;
  }

  /// Rewind every class to the start of its retained slabs and drop the
  /// free lists. Precondition: no live OpRefs against this arena -- the
  /// engine calls this only at run teardown.
  void reset() {
    for (auto& c : classes_) {
      c.slab_idx = 0;
      c.offset = 0;
      c.free_head = nullptr;
    }
  }

#ifndef NDEBUG
  void bind_owner() {
    owner_ = std::this_thread::get_id();
    bound_ = true;
  }
  void release_owner() { bound_ = false; }
  void debug_check_owner() const {
    assert((!bound_ || owner_ == std::this_thread::get_id()) &&
           "op state touched off its owning shard thread");
  }
#else
  void bind_owner() {}
  void release_owner() {}
  void debug_check_owner() const {}
#endif

  /// Allocate a block for a `payload_bytes` op, write its header with a
  /// refcount of 1, and return the payload pointer. Internal -- use
  /// make_op().
  void* allocate_op(std::size_t payload_bytes) {
    const std::size_t total = payload_bytes + sizeof(op_detail::OpHeader);
    const std::size_t cls = op_detail::class_for(total);
    op_detail::OpHeader* h;
    std::uint16_t flags = 0;
    if (cls >= op_detail::kClasses) {
      h = static_cast<op_detail::OpHeader*>(::operator new(total));
      ++heap_allocations_;
      flags = op_detail::kFlagHeap;
    } else {
      debug_check_owner();
      h = static_cast<op_detail::OpHeader*>(arena_block(cls));
    }
    h->arena = this;
    h->refs = 1;
    h->cls = static_cast<std::uint16_t>(cls);
    h->flags = flags;
    return h + 1;
  }

  /// Return a slab block to its class free list. Internal.
  void free_arena_block(op_detail::OpHeader* h) noexcept {
    debug_check_owner();
    SizeClass& c = classes_[h->cls];
    *reinterpret_cast<void**>(h) = c.free_head;
    c.free_head = h;
  }

 private:
  struct SizeClass {
    std::vector<char*> slabs;
    std::size_t slab_idx = 0;   // slab currently being bumped
    std::size_t offset = 0;     // bump offset within it
    void* free_head = nullptr;  // intrusive LIFO of freed blocks
  };

  void* arena_block(std::size_t cls) {
    SizeClass& c = classes_[cls];
    if (c.free_head) {
      void* b = c.free_head;
      c.free_head = *static_cast<void**>(b);
      return b;
    }
    const std::size_t bytes = op_detail::kClassBytes[cls];
    if (c.slab_idx >= c.slabs.size() ||
        c.offset + bytes > op_detail::kSlabBytes) {
      if (c.slab_idx < c.slabs.size()) {
        ++c.slab_idx;  // current slab exhausted; move to the next retained one
        c.offset = 0;
      }
      if (c.slab_idx >= c.slabs.size()) {
        c.slabs.push_back(
            static_cast<char*>(::operator new(op_detail::kSlabBytes)));
        ++heap_allocations_;
      }
    }
    void* b = c.slabs[c.slab_idx] + c.offset;
    c.offset += bytes;
    return b;
  }

  std::array<SizeClass, op_detail::kClasses> classes_;
  std::uint64_t heap_allocations_ = 0;
#ifndef NDEBUG
  std::thread::id owner_;
  bool bound_ = false;
#endif
};

namespace op_detail {

inline void retain(OpHeader* h) noexcept {
#ifndef NDEBUG
  h->arena->debug_check_owner();
#endif
  ++h->refs;
}

/// Drop one reference; true when the count hit zero and the payload must
/// be destroyed.
inline bool release(OpHeader* h) noexcept {
#ifndef NDEBUG
  h->arena->debug_check_owner();
#endif
  return --h->refs == 0;
}

/// Oversize blocks are rare, so their delete stays out of line. That also
/// keeps GCC from pairing it with a later OpRef's refcount access and
/// reporting a false -Wuse-after-free where OpRef copies are inlined.
[[gnu::cold, gnu::noinline]] inline void free_heap_block(OpHeader* h) noexcept {
  ::operator delete(h);
}

/// Return a block (payload already destroyed) to wherever it came from.
inline void free_raw(OpHeader* h) noexcept {
  if (h->flags & kFlagHeap) {
    free_heap_block(h);
    return;
  }
  h->arena->free_arena_block(h);
}

}  // namespace op_detail

template <typename T, typename... Args>
OpRef<T> make_op(OpArena& arena, Args&&... args);

/// Intrusive-refcount handle for op state, 8 bytes (one raw pointer).
/// Replaces std::shared_ptr on the request hot path: a copy is a plain
/// increment -- no atomic RMW, no control block, no TLS.
/// Copyable and movable; freely capturable in event callbacks (the
/// owning arena lives inside the EventQueue and outlives every pending
/// callback).
template <typename T>
class OpRef {
 public:
  OpRef() noexcept = default;
  OpRef(std::nullptr_t) noexcept {}
  OpRef(const OpRef& o) noexcept : ptr_(o.ptr_) {
    if (ptr_) op_detail::retain(header(ptr_));
  }
  OpRef(OpRef&& o) noexcept : ptr_(o.ptr_) { o.ptr_ = nullptr; }
  OpRef& operator=(const OpRef& o) noexcept {
    OpRef tmp(o);  // copy-then-swap: self-assignment safe
    swap(tmp);
    return *this;
  }
  OpRef& operator=(OpRef&& o) noexcept {
    OpRef tmp(std::move(o));
    swap(tmp);
    return *this;
  }
  ~OpRef() { reset(); }

  void reset() noexcept {
    if (!ptr_) return;
    T* p = ptr_;
    ptr_ = nullptr;
    op_detail::OpHeader* h = header(p);
    if (op_detail::release(h)) {
      p->~T();
      op_detail::free_raw(h);
    }
  }

  void swap(OpRef& o) noexcept { std::swap(ptr_, o.ptr_); }

  T* get() const noexcept { return ptr_; }
  T& operator*() const noexcept { return *ptr_; }
  T* operator->() const noexcept { return ptr_; }
  explicit operator bool() const noexcept { return ptr_ != nullptr; }

  friend bool operator==(const OpRef& a, const OpRef& b) noexcept {
    return a.ptr_ == b.ptr_;
  }
  friend bool operator!=(const OpRef& a, const OpRef& b) noexcept {
    return a.ptr_ != b.ptr_;
  }
  friend bool operator==(const OpRef& a, std::nullptr_t) noexcept {
    return a.ptr_ == nullptr;
  }
  friend bool operator!=(const OpRef& a, std::nullptr_t) noexcept {
    return a.ptr_ != nullptr;
  }

  /// Current reference count (tests/introspection only).
  std::uint32_t use_count() const noexcept {
    return ptr_ ? header(ptr_)->refs : 0;
  }

 private:
  template <typename U, typename... Args>
  friend OpRef<U> make_op(OpArena&, Args&&...);

  struct Adopt {};
  OpRef(T* adopted, Adopt) noexcept : ptr_(adopted) {}

  static op_detail::OpHeader* header(const T* p) noexcept {
    return reinterpret_cast<op_detail::OpHeader*>(
               reinterpret_cast<char*>(const_cast<T*>(p))) -
           1;
  }

  T* ptr_ = nullptr;
};

/// make_shared equivalent against an engine's arena: one block holding
/// header + object, recycled through the arena's free lists.
template <typename T, typename... Args>
OpRef<T> make_op(OpArena& arena, Args&&... args) {
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "over-aligned op state is not supported");
  void* payload = arena.allocate_op(sizeof(T));
  try {
    new (payload) T(std::forward<Args>(args)...);
  } catch (...) {
    op_detail::free_raw(static_cast<op_detail::OpHeader*>(payload) - 1);
    throw;
  }
  return OpRef<T>(static_cast<T*>(payload), typename OpRef<T>::Adopt{});
}

}  // namespace raidsim
