// Adam (Kingma & Ba, 2014): the primary hand-tuned baseline of the paper.
//
// beta1 is deliberately allowed in (-1, 1): Fig. 10 sweeps Adam's momentum
// beta1 over {-0.2, 0.0, 0.3, 0.5, 0.7, 0.9} under asynchrony.
#pragma once

#include "optim/optimizer.hpp"
#include "tensor/tensor.hpp"

namespace yf::optim {

class Adam : public Optimizer {
 public:
  Adam(std::vector<autograd::Variable> params, double lr, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8);

  void step_span(const ApplyPlan& plan, std::int64_t lo, std::int64_t hi) override;
  std::string name() const override { return "adam"; }
  double lr() const override { return lr_; }
  void set_lr(double lr) override { lr_ = lr; }

  /// lr (externally driven) and the moment buffers.
  void save_state(core::StateWriter& w) const override;
  void load_state(core::StateReader& r) override;

 private:
  double lr_, beta1_, beta2_, eps_;
  tensor::Tensor m_, v_;  ///< flat moment buffers aligned with the arena
};

}  // namespace yf::optim
