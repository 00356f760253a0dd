// Global operator new/delete replacements behind
// test_support::heap_allocations() (see alloc_counter.hpp).

#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

namespace seqge::test_support {

std::size_t heap_allocations() noexcept {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace seqge::test_support

void* operator new(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
