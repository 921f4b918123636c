#ifndef PREGELIX_TESTS_COUNTING_ALLOCATOR_H_
#define PREGELIX_TESTS_COUNTING_ALLOCATOR_H_

// Binary-wide counting allocator: every global operator new bumps a counter,
// so a test can assert how many heap allocations a code path performs (the
// allocation discipline of DESIGN.md §13). Replacing these in one TU
// replaces them for the whole test binary, so include this header from
// exactly one source file of a test binary, and build that binary with
// -Wno-mismatched-new-delete: GCC cannot see that the replaced new and the
// free() below pair up.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace pregelix_test {
inline std::atomic<uint64_t> g_heap_allocs{0};

/// Heap allocations made by the whole process so far.
inline uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace pregelix_test

void* operator new(std::size_t size) {
  pregelix_test::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, their memory would come back through the free()
// below, which ASan reports as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  pregelix_test::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // PREGELIX_TESTS_COUNTING_ALLOCATOR_H_
