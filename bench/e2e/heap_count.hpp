#pragma once

#include <cstdint>

namespace raidsim_bench {

/// Global operator new calls so far in this process (all threads). The
/// benchmark binary replaces operator new/delete to count them; the
/// replacements live in their own translation unit so they are never
/// inlined into callers.
std::uint64_t heap_allocations();

}  // namespace raidsim_bench
