#include "core/arena.hpp"

#include <stdexcept>
#include <unordered_set>

#include "core/kernels.hpp"

namespace yf::core {

ParamArena::ParamArena(const std::vector<autograd::Variable>& params) {
  slots_.reserve(params.size());
  std::unordered_set<autograd::Node*> seen;
  for (const auto& p : params) {
    if (!p.defined()) throw std::invalid_argument("ParamArena: undefined variable");
    auto node = p.node();
    if (!seen.insert(node.get()).second) continue;  // tied weights: one slot
    slots_.push_back({std::move(node), total_, p.value().shape()});
    total_ += p.value().size();
  }
  if (slots_.empty()) throw std::invalid_argument("ParamArena: empty parameter list");

  if (try_adopt()) return;

  values_ = tensor::Tensor(tensor::Shape{total_});
  grads_ = tensor::Tensor(tensor::Shape{total_});
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    auto& slot = slots_[i];
    core::copy(param_values(i), slot.node->value.data());
    if (slot.node->grad_allocated) core::copy(param_grads(i), slot.node->grad.data());
    slot.node->value = tensor::Tensor::view_of(values_, slot.offset, slot.shape);
    slot.node->grad = tensor::Tensor::view_of(grads_, slot.offset, slot.shape);
    slot.node->grad_allocated = true;
  }
}

bool ParamArena::try_adopt() {
  // The parameters may already live in arena-shaped storage: contiguous
  // from offset 0, in slot order, values in one shared buffer and grads
  // in another (a previous arena over the same list, or a single flat
  // parameter). Adopting those buffers instead of reallocating keeps
  // every earlier arena over the same parameters aliased -- two
  // optimizers on one model both keep working, as they did before the
  // arena existed.
  const auto& first = *slots_.front().node;
  if (!first.grad_allocated) return false;
  for (const auto& slot : slots_) {
    const auto& node = *slot.node;
    if (!node.grad_allocated) return false;
    if (!node.value.shares_storage_with(first.value) ||
        !node.grad.shares_storage_with(first.grad)) {
      return false;
    }
    if (node.value.shares_storage_with(first.grad)) return false;  // one buffer for both
    if (node.value.storage_offset() != slot.offset || node.grad.storage_offset() != slot.offset) {
      return false;
    }
  }
  // Rebuild whole-buffer handles from the first slot's views. view_of
  // bounds-checks against the storage, so undersized storage rejects.
  try {
    values_ = tensor::Tensor::view_of(first.value, 0, tensor::Shape{total_});
    grads_ = tensor::Tensor::view_of(first.grad, 0, tensor::Shape{total_});
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

std::size_t ParamArena::slot_index(const autograd::Variable& p) const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].node == p.node()) return i;
  }
  throw std::invalid_argument("ParamArena::slot_index: variable not in this arena");
}

namespace {

tensor::Tensor window_into(const tensor::Tensor& buffer, std::int64_t offset, std::int64_t len,
                           std::int64_t total) {
  if (offset < 0 || len < 0 || offset + len > total) {
    throw std::out_of_range("ParamArena: window [" + std::to_string(offset) + ", " +
                            std::to_string(offset + len) + ") outside arena of size " +
                            std::to_string(total));
  }
  return tensor::Tensor::view_of(buffer, offset, tensor::Shape{len});
}

}  // namespace

tensor::Tensor ParamArena::values_window(std::int64_t offset, std::int64_t len) const {
  return window_into(values_, offset, len, total_);
}

void ParamArena::zero_grads() { core::fill(grads(), 0.0); }

tensor::Tensor ParamArena::make_buffer() const { return tensor::Tensor(tensor::Shape{total_}); }

tensor::Tensor ParamArena::view(const tensor::Tensor& buffer, std::size_t i) const {
  return tensor::Tensor::view_of(buffer, slots_[i].offset, slots_[i].shape);
}

}  // namespace yf::core
