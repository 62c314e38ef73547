// perfbench/alloc_count.cpp
//
// Counting operator new: every heap allocation of the process increments
// perfbench::g_allocs. libstdc++'s array and nothrow forms call these two,
// so each allocation form is counted once. Kept in a file of its own so no
// caller's inlined new/delete pair sits next to the replacements.
#include <cstdlib>
#include <new>

#include "perfbench.hpp"

namespace perfbench {
std::atomic<std::uint64_t> g_allocs{0};
}

namespace {
void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}
}  // namespace

void* operator new(std::size_t n) {
  return counted(std::malloc(n != 0 ? n : 1));
}
void* operator new(std::size_t n, std::align_val_t al) {
  const auto a = static_cast<std::size_t>(al);
  return counted(std::aligned_alloc(a, (n + a - 1) / a * a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
