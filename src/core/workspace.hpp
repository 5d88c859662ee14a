// Workspace: arena-style scratch storage for the model hot path
// (DESIGN.md §8).
//
// A Workspace hands out tensors that are `Tensor::view_of` windows into a
// small set of large backing blocks, mirroring how core::ParamArena backs
// every parameter with a window of one flat buffer. Acquisition is a bump
// pointer; nothing is freed individually. Two properties make it the
// memory substrate of the autograd tape (autograd/tape.hpp):
//
//  * high-water-mark reuse: blocks are only ever *added* and never
//    released, so once a workload's peak demand has been observed -- the
//    tape's one-step warm-up -- every later acquisition is served from
//    existing storage with zero heap traffic. A new block doubles the
//    total capacity until it reaches 32768 doubles (256 KB); past that,
//    blocks are max(32768, request) doubles, so a large workspace's
//    unused tail stays near one such block instead of up to half of its
//    capacity;
//  * marker rollback: `mark()` captures the bump position and
//    `rollback()` returns to it, releasing every acquisition made in
//    between at once. The tape uses this to discard the tail of a
//    recording when the graph structure changes mid-stream.
//
// Acquired regions are zero-filled (like a freshly constructed Tensor),
// and rounded up to 8 doubles so consecutive tensors stay cache-line
// aligned relative to the block start. Handles share ownership of their
// block's storage, so tensors outlive the Workspace itself; rollback only
// recycles the *window*, which is why callers must not touch a tensor
// acquired after a marker once that marker has been rolled back.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace yf::core {

class Workspace {
 public:
  /// Position of the bump pointer; see mark()/rollback().
  struct Marker {
    std::size_t block = 0;
    std::int64_t offset = 0;
    std::int64_t held = 0;
  };

  /// `initial_capacity` doubles are pre-allocated into the first block
  /// (0 defers all allocation to the first acquire).
  explicit Workspace(std::int64_t initial_capacity = 0);

  /// Zero-filled tensor of the given shape, backed by workspace storage.
  /// Allocates a new block only when every existing block is exhausted.
  tensor::Tensor acquire(std::span<const std::int64_t> dims);
  tensor::Tensor acquire(std::initializer_list<std::int64_t> dims) {
    return acquire(std::span<const std::int64_t>(dims.begin(), dims.size()));
  }

  /// Raw uninitialized storage of `n` doubles: no zero fill, no Tensor
  /// (a Tensor's Shape vector is itself a heap allocation). This is the
  /// per-call hot-path form -- the GEMM packing panels acquire through
  /// it on every matmul, overwrite every element (padding included), and
  /// roll back before returning, so steady-state calls touch neither
  /// the allocator nor memset. The span dies with the next rollback
  /// across its acquisition, like any other workspace window.
  std::span<double> acquire_span(std::int64_t n);

  Marker mark() const { return {cur_, off_, held_}; }

  /// Return the bump pointer to `m`. Every tensor acquired after the
  /// marker must be dead (or at least never touched again) -- its window
  /// will be handed out to later acquisitions.
  void rollback(const Marker& m);

  /// Total doubles across all blocks (monotone non-decreasing).
  std::int64_t capacity() const { return capacity_; }
  /// Largest number of doubles ever held simultaneously.
  std::int64_t high_water() const { return high_; }
  /// high_water() in bytes -- the unit perf baselines and bench counters
  /// report, so callers don't each re-derive sizeof(double) scaling.
  std::int64_t high_water_bytes() const {
    return high_ * static_cast<std::int64_t>(sizeof(double));
  }
  /// Doubles currently held (between the base and the bump pointer).
  std::int64_t held() const { return held_; }
  std::size_t block_count() const { return blocks_.size(); }

 private:
  /// Bump-allocate `n` doubles; returns the start offset within
  /// `blocks_[cur_]` (the block the reservation landed in). The single
  /// owner of the rounding/advance arithmetic for both acquire forms.
  std::int64_t reserve(std::int64_t n);

  std::vector<tensor::Tensor> blocks_;  ///< rank-1 backing buffers
  std::size_t cur_ = 0;                 ///< block the bump pointer is in
  std::int64_t off_ = 0;                ///< next free double within it
  std::int64_t held_ = 0;
  std::int64_t high_ = 0;
  std::int64_t capacity_ = 0;
};

}  // namespace yf::core
