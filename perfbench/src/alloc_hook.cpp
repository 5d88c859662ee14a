// Counting global allocator for the core.allocs_per_step metric: every
// operator new variant reports into the library's core/alloc_count hook,
// as tests/alloc_count_test.cpp does, but only while a traced run has
// counting switched on -- untraced runs pay one relaxed load per call.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"
#include "core/alloc_count.hpp"

namespace {

std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) yf::core::detail::note_alloc();
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) yf::core::detail::note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, size ? size : 1) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t counted_allocs() { return yf::core::heap_alloc_count(); }

}  // namespace perfbench

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return counted_alloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
