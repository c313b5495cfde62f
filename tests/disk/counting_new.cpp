#include "counting_new.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void count(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(n, std::memory_order_relaxed);
}
}  // namespace

std::uint64_t raidsim::test_support::global_allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t raidsim::test_support::global_allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

void* operator new(std::size_t n) {
  count(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  count(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
// The nothrow forms too: otherwise a nothrow new takes the default
// allocator and is freed by the std::free below, a mismatch that
// AddressSanitizer reports.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  count(n);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
