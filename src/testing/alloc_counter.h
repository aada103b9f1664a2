#ifndef BTRIM_TESTING_ALLOC_COUNTER_H_
#define BTRIM_TESTING_ALLOC_COUNTER_H_

#include <cstdint>

namespace btrim {
namespace testing {

/// Number of allocations made through the global operator new (all
/// threads) since the program started. For tests that pin a path as
/// allocation-free: read it before and after the path on a quiet thread.
///
/// Its definition lives beside counting replacements of the global
/// operator new/delete, and a static archive member is linked only when
/// something references it, so only binaries that call this function get
/// the counting allocator.
int64_t HeapAllocations();

}  // namespace testing
}  // namespace btrim

#endif  // BTRIM_TESTING_ALLOC_COUNTER_H_
