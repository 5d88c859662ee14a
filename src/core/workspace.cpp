#include "core/workspace.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/kernels.hpp"

namespace yf::core {

namespace {

/// Smallest block worth allocating; tiny first blocks would just add
/// block-hops on the warm-up path.
constexpr std::int64_t kMinBlock = 1024;

/// Growth cap: blocks double the total capacity until it reaches this
/// size (256 KB), then grow by max(kMaxGrowth, request). Uncapped
/// doubling leaves up to half of a large workspace unused, and a tape
/// built per training run would rebuild those megabyte blocks every run.
constexpr std::int64_t kMaxGrowth = 32768;

/// Keep consecutive acquisitions 64-byte aligned relative to block start.
constexpr std::int64_t kAlign = 8;

std::int64_t aligned(std::int64_t n) { return (n + kAlign - 1) / kAlign * kAlign; }

}  // namespace

Workspace::Workspace(std::int64_t initial_capacity) {
  if (initial_capacity > 0) {
    const std::int64_t size = std::max(kMinBlock, aligned(initial_capacity));
    blocks_.emplace_back(tensor::Shape{size});
    capacity_ += size;
  }
}

std::int64_t Workspace::reserve(std::int64_t n) {
  const std::int64_t need = aligned(std::max<std::int64_t>(n, 1));

  // Advance past exhausted blocks; allocate a fresh one (doubling the
  // total capacity up to kMaxGrowth, then kMaxGrowth at a time) only when
  // none of the remaining blocks fits.
  while (cur_ < blocks_.size() && off_ + need > blocks_[cur_].size()) {
    ++cur_;
    off_ = 0;
  }
  if (cur_ == blocks_.size()) {
    const std::int64_t size = std::max({kMinBlock, need, std::min(capacity_, kMaxGrowth)});
    blocks_.emplace_back(tensor::Shape{size});
    capacity_ += size;
  }

  const std::int64_t start = off_;
  off_ += need;
  held_ += need;
  high_ = std::max(high_, held_);
  return start;
}

std::span<double> Workspace::acquire_span(std::int64_t n) {
  const std::int64_t start = reserve(n);
  return blocks_[cur_].data().subspan(static_cast<std::size_t>(start),
                                      static_cast<std::size_t>(std::max<std::int64_t>(n, 0)));
}

tensor::Tensor Workspace::acquire(std::span<const std::int64_t> dims) {
  tensor::Shape shape(dims.begin(), dims.end());
  const std::int64_t n = tensor::numel(shape);
  const std::int64_t start = reserve(n);
  tensor::Tensor t = tensor::Tensor::view_of(blocks_[cur_], start, std::move(shape));
  core::fill(t.data(), 0.0);
  return t;
}

void Workspace::rollback(const Marker& m) {
  const bool in_range =
      m.block < blocks_.size() ? m.offset <= blocks_[m.block].size() : m.block == blocks_.size();
  if (!in_range) {
    throw std::invalid_argument("Workspace::rollback: marker outside workspace");
  }
  if (m.held > held_) {
    throw std::invalid_argument("Workspace::rollback: marker is ahead of the bump pointer");
  }
  cur_ = m.block;
  off_ = m.offset;
  held_ = m.held;
}

}  // namespace yf::core
