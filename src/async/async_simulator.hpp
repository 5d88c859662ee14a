// Deterministic asynchronous-training simulator (Section 5.2 protocol).
//
// Reproduces "16 asynchronous workers updating the model in round-robin
// fashion, i.e. the gradient is delayed for 15 iterations": each step
// computes a gradient at the *current* iterate, enqueues it, and applies
// the gradient that is now `staleness` steps old. Single-threaded, so runs
// are exactly reproducible per seed; the real multi-threaded engine is the
// sharded parameter server (async/param_server).
//
// Optionally closes the momentum loop (Algorithm 5) when driving a
// YellowFin optimizer: measured total momentum feeds the negative
// feedback controller, which overrides the applied algorithmic momentum.
//
// The trainer owns an autograd::GraphTape for its lifetime: step()
// installs it on the calling thread and begins a tape step before the
// gradient closure, so a fixed-structure model replays its cached graph
// (DESIGN.md §8) with the same trajectory as the per-step heap graph.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "async/staleness_queue.hpp"
#include "async/total_momentum.hpp"
#include "autograd/tape.hpp"
#include "optim/optimizer.hpp"
#include "tuner/closed_loop.hpp"
#include "tuner/yellowfin.hpp"

namespace yf::async {

/// Computes the minibatch loss at the current parameter values and leaves
/// gradients on the parameters; returns the loss.
using GradFn = std::function<double()>;

struct AsyncTrainerOptions {
  std::int64_t staleness = 15;  ///< tau = workers - 1
  /// Algorithm 5. Requires a YellowFin optimizer (target = its tuned
  /// momentum) or a MomentumSGD plus an explicit `mu_target` — the same
  /// contract as the sharded parameter server (async/param_server).
  bool closed_loop = false;
  double gamma = 0.01;  ///< feedback gain
  /// Fixed total-momentum target; overrides the tuner's target when set.
  std::optional<double> mu_target;
};

struct AsyncStepStats {
  double loss = 0.0;                     ///< loss at the gradient-computation point
  bool applied_update = false;           ///< false while the pipeline fills
  std::optional<double> mu_hat_total;    ///< latest mu_hat_T estimate
  double applied_momentum = 0.0;         ///< algorithmic momentum used this step
  double target_momentum = 0.0;          ///< tuner's target (YellowFin only)
};

class AsyncTrainer {
 public:
  AsyncTrainer(std::shared_ptr<optim::Optimizer> optimizer, GradFn grad_fn,
               const AsyncTrainerOptions& opts);

  /// One simulated server step. Variables the gradient closure creates
  /// are tape handles, valid until the next step() or the trainer dies.
  AsyncStepStats step();

  const TotalMomentumEstimator& estimator() const { return estimator_; }
  const tuner::ClosedLoopController& controller() const { return controller_; }

 private:
  std::shared_ptr<optim::Optimizer> optimizer_;
  /// Resolves the Algorithm 5 knobs (target / applied momentum) — the
  /// same tuner::MomentumControl contract as the sharded server.
  tuner::MomentumControl control_;
  GradFn grad_fn_;
  AsyncTrainerOptions opts_;
  StalenessQueue<tensor::Tensor> queue_;
  TotalMomentumEstimator estimator_;
  tuner::ClosedLoopController controller_;
  autograd::GraphTape tape_;
};

}  // namespace yf::async
