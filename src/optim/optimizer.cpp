#include "optim/optimizer.hpp"

#include <stdexcept>

namespace yf::optim {

namespace {

const std::vector<autograd::Variable>& validated(const std::vector<autograd::Variable>& params) {
  if (params.empty()) throw std::invalid_argument("Optimizer: empty parameter list");
  for (const auto& p : params) {
    if (!p.requires_grad()) {
      throw std::invalid_argument("Optimizer: parameter does not require grad");
    }
  }
  return params;
}

}  // namespace

Optimizer::Optimizer(std::vector<autograd::Variable> params)
    : params_(std::move(params)), arena_(validated(params_)) {}

void Optimizer::step() {
  const ApplyPlan plan = begin_apply(arena_.grads());
  step_span(plan, 0, arena_.size());
  end_apply(plan);
}

ApplyPlan Optimizer::begin_apply(std::span<double> /*grad*/) { return {iteration_, lr(), 0.0}; }

void Optimizer::end_apply(const ApplyPlan& /*plan*/) { ++iteration_; }

void Optimizer::zero_grad() { arena_.zero_grads(); }

void Optimizer::save_state(core::StateWriter& w) const { w.i64(iteration_); }

void Optimizer::load_state(core::StateReader& r) {
  iteration_ = r.i64();
  if (iteration_ < 0) throw core::StateError("Optimizer: negative iteration counter");
}

}  // namespace yf::optim
