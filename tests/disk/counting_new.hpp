#pragma once

#include <cstdint>

namespace raidsim::test_support {

/// Global operator new calls so far in this process. The test binary
/// that links counting_new.cpp replaces operator new/delete to count
/// them; the replacements live in their own translation unit so they
/// are never inlined into callers.
std::uint64_t global_allocations();

/// Bytes those calls asked for so far (frees are not subtracted).
std::uint64_t global_allocated_bytes();

}  // namespace raidsim::test_support
