#include "async/async_simulator.hpp"

#include <stdexcept>
#include <string>

#include "core/kernels.hpp"
#include "nn/module.hpp"

namespace yf::async {

namespace {

optim::Optimizer& checked(const std::shared_ptr<optim::Optimizer>& optimizer, const char* who) {
  if (!optimizer) throw std::invalid_argument(std::string(who) + ": null optimizer");
  return *optimizer;
}

}  // namespace

AsyncTrainer::AsyncTrainer(std::shared_ptr<optim::Optimizer> optimizer, GradFn grad_fn,
                           const AsyncTrainerOptions& opts)
    : optimizer_(std::move(optimizer)),
      control_(checked(optimizer_, "AsyncTrainer"), opts.mu_target),
      grad_fn_(std::move(grad_fn)),
      opts_(opts),
      queue_(opts.staleness),
      estimator_(opts.staleness),
      controller_(opts.gamma) {
  if (opts_.closed_loop) {
    control_.require_closed_loop_support("AsyncTrainer");
    // Start the feedback from the currently applied momentum.
    controller_ = tuner::ClosedLoopController(opts_.gamma, control_.applied());
  }
}

AsyncStepStats AsyncTrainer::step() {
  AsyncStepStats stats;
  auto& params = const_cast<std::vector<autograd::Variable>&>(optimizer_->params());

  // Worker view: gradient at the current iterate.
  autograd::TapeScope tape_scope(&tape_);
  tape_.begin_step();
  optimizer_->zero_grad();
  stats.loss = grad_fn_();
  tensor::Tensor flat_grad = nn::flatten_grads(params);
  tensor::Tensor iterate = nn::flatten_values(params);
  estimator_.record(iterate, flat_grad, optimizer_->lr());

  // Server view: apply the gradient that is `staleness` steps old.
  auto delayed = queue_.push(std::move(flat_grad));
  if (delayed) {
    std::int64_t off = 0;
    for (auto& p : params) {
      auto g = p.node()->ensure_grad().data();
      core::copy(g, delayed->data().subspan(static_cast<std::size_t>(off), g.size()));
      off += static_cast<std::int64_t>(g.size());
    }
    // Closed-loop momentum control (Algorithm 5): adjust applied momentum
    // before the update so mu_hat_T tracks the target.
    stats.mu_hat_total = estimator_.estimate();
    if (opts_.closed_loop && stats.mu_hat_total) {
      control_.set_applied(controller_.update(control_.target(), *stats.mu_hat_total));
    }
    optimizer_->step();
    stats.applied_update = true;
  }

  stats.target_momentum = control_.target();
  stats.applied_momentum =
      opts_.closed_loop ? controller_.applied_momentum() : control_.applied();
  return stats;
}

}  // namespace yf::async
