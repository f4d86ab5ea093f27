// Global operator new replacement that counts heap allocations while
// counting is switched on (the benchmark's measured cycle blocks).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace perfbench {

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

namespace {

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace
}  // namespace perfbench

void* operator new(std::size_t size) { return perfbench::CountedAlloc(size); }
void* operator new[](std::size_t size) {
  return perfbench::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
