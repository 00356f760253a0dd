#pragma once
// Heap-allocation counter for the zero-allocation tests. A test binary
// that links tests/support/alloc_counter.cpp replaces the global scalar
// and array operator new/delete with malloc/free wrappers that count
// every new. (Aligned news keep their defaults — nothing the tests
// probe allocates aligned storage.)
//
// The replacements live in their own translation unit so that no test
// source sees their bodies: inlined into a caller, a free() of memory
// from operator new trips -Wmismatched-new-delete (notably at -O1 under
// -fsanitize=thread).

#include <cstddef>

namespace seqge::test_support {

/// Scalar and array operator new calls made by this process so far.
[[nodiscard]] std::size_t heap_allocations() noexcept;

}  // namespace seqge::test_support
