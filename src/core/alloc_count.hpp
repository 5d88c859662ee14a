// Allocation-counting hooks (DESIGN.md §8).
//
// The library itself never replaces the global allocator; it only exposes
// a process-wide counter that a *test-only* `operator new` replacement
// increments (tests/alloc_count_test.cpp defines the replacement inside
// its own binary). Production binaries link this TU too, but with nothing
// calling note_alloc() the counter stays at zero and costs one unused
// atomic.
//
// This is how the zero-allocation contract of the autograd tape is
// *proved* rather than asserted: warm a training step up, snapshot
// heap_alloc_count(), run steady-state steps, and require the counter
// not to move (see the allocation-regression suite).
#pragma once

#include <cstdint>

namespace yf::core {

/// Number of heap allocations observed since process start (0 unless a
/// counting allocator TU is linked in and installed).
std::uint64_t heap_alloc_count();

namespace detail {
/// Called by a replaced operator new. Safe from any thread; relaxed
/// ordering (counts, not synchronization).
void note_alloc();
}  // namespace detail

}  // namespace yf::core
