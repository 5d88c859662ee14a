#include "core/alloc_count.hpp"

#include <atomic>

namespace yf::core {

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

std::uint64_t heap_alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

namespace detail {
void note_alloc() { g_allocs.fetch_add(1, std::memory_order_relaxed); }
}  // namespace detail

}  // namespace yf::core
