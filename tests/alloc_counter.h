// A counting global operator new, for tests that prove a code path
// allocates nothing.
//
// Including this header replaces the global allocator of the whole
// executable, so exactly one translation unit of a test binary includes
// it, and that binary gets its own add_executable in tests/CMakeLists.txt.
// Read allocations() before and after the code under test, and check
// results only after the second read, so that nothing else runs while it
// is measured.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace reqblock::testing {

inline std::atomic<std::uint64_t> g_allocations{0};

/// Calls of the global operator new since the program started.
inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace reqblock::testing

// GCC flags free() on memory from a replaced operator new even when that
// operator new is the malloc just below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  reqblock::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
