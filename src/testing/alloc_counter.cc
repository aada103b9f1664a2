#include "testing/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replacements of the global allocation functions. The array and
// nothrow forms are left to the library, which routes them through these.
void* operator new(std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace btrim {
namespace testing {

int64_t HeapAllocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace testing
}  // namespace btrim
