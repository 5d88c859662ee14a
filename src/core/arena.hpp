// ParamArena: flat parameter/gradient storage for a model (DESIGN.md §4).
//
// Flattens a parameter list into two contiguous buffers -- one for values,
// one for gradients -- and repoints every parameter's autograd node at an
// O(1)-reshape view into them. After construction:
//
//  * `p.value()` and `p.grad()` alias the arena buffers
//    (shares_storage_with the arena tensors holds for every parameter);
//  * per-parameter shapes are preserved exactly -- each view keeps the
//    shape the parameter was registered with;
//  * optimizers and the tuner sweep `values()` / `grads()` in one fused
//    pass instead of walking the parameter list tensor by tensor;
//  * the buffers outlive the arena (shared storage), so parameters stay
//    valid if the arena/optimizer is destroyed;
//  * a new arena over parameters that are already flat, contiguous and in
//    slot order *adopts* the existing buffers instead of reallocating, so
//    several optimizers over the same model all stay aliased (drop-in
//    replacement semantics). Only a different parameter order or
//    non-arena storage triggers a fresh flatten, which migrates values
//    and gradients into new buffers.
//
// Duplicate Variable handles (same autograd node appearing twice in the
// list) flatten into a single slot, so an update touches each distinct
// parameter exactly once.
#pragma once

#include <span>
#include <vector>

#include "autograd/variable.hpp"
#include "tensor/tensor.hpp"

namespace yf::core {

class ParamArena {
 public:
  /// Flatten `params` (leaf Variables) and repoint them into the arena.
  explicit ParamArena(const std::vector<autograd::Variable>& params);

  /// Total number of scalars across all unique parameters.
  std::int64_t size() const { return total_; }

  /// Number of unique parameters (duplicates deduplicated).
  std::size_t count() const { return slots_.size(); }

  std::span<double> values() { return values_.data(); }
  std::span<double> grads() { return grads_.data(); }
  std::span<const double> values() const { return values_.data(); }
  std::span<const double> grads() const { return grads_.data(); }

  /// The rank-1 arena buffers themselves (parameter tensors are views
  /// into these; useful for aliasing checks and whole-model tensor math).
  const tensor::Tensor& values_tensor() const { return values_; }
  const tensor::Tensor& grads_tensor() const { return grads_; }

  std::int64_t offset(std::size_t i) const { return slots_[i].offset; }
  const tensor::Shape& shape(std::size_t i) const { return slots_[i].shape; }
  /// Scalar count of slot `i`; slot i spans [offset(i), offset(i) +
  /// slot_size(i)).
  std::size_t slot_size(std::size_t i) const {
    return static_cast<std::size_t>(tensor::numel(slots_[i].shape));
  }

  /// Slot index of a flattened parameter; throws if `p` is not in this
  /// arena. With tied weights, duplicates map to the same slot.
  std::size_t slot_index(const autograd::Variable& p) const;

  std::span<double> param_values(std::size_t i) {
    return values().subspan(static_cast<std::size_t>(slots_[i].offset), slot_size(i));
  }
  std::span<double> param_grads(std::size_t i) {
    return grads().subspan(static_cast<std::size_t>(slots_[i].offset), slot_size(i));
  }

  /// Contiguous shard window over the flat value buffer: a rank-1
  /// `view_of` tensor aliasing [offset, offset + len). Windows may span
  /// parameter boundaries — the parameter server partitions the arena by
  /// scalar count, not by slot (async/param_server, DESIGN.md §5).
  tensor::Tensor values_window(std::int64_t offset, std::int64_t len) const;

  /// Zero the whole gradient buffer in one pass.
  void zero_grads();

  /// A zero-filled rank-1 buffer aligned with the arena layout, for
  /// optimizer state (velocity, moments, ...).
  tensor::Tensor make_buffer() const;

  /// Shaped view of slot `i` within an aligned buffer (e.g. the velocity
  /// of parameter i).
  tensor::Tensor view(const tensor::Tensor& buffer, std::size_t i) const;

 private:
  /// Adopt existing arena-shaped storage instead of re-flattening, so a
  /// second arena over the same parameters shares buffers with the first
  /// (two optimizers on one model both stay live). Returns false when the
  /// parameters are not already flat/contiguous/in-order.
  bool try_adopt();

  struct Slot {
    autograd::NodePtr node;
    std::int64_t offset;
    tensor::Shape shape;
  };

  std::vector<Slot> slots_;
  std::int64_t total_ = 0;
  tensor::Tensor values_;
  tensor::Tensor grads_;
};

}  // namespace yf::core
