// Optimizer base class: consumes parameter gradients, updates values.
//
// All optimizers in this library (including YellowFin) share this
// interface, so experiment harnesses can swap them freely -- the "drop-in
// replacement" property the paper's released implementations advertise.
//
// Construction flattens the parameters into a core::ParamArena
// (DESIGN.md §4): every concrete step() is a single fused sweep over the
// contiguous value/gradient buffers instead of a per-parameter tensor
// walk, and zero_grad() is one pass over the gradient buffer. Parameter
// handles remain valid -- they become views into the arena.
//
// Several optimizers may be constructed over the *same parameter list*:
// later arenas adopt the first one's buffers, so all stay live. But
// constructing an optimizer over a reordered or partial subset of
// already-flattened parameters migrates them into new buffers and
// detaches any earlier optimizer still holding the old arena -- destroy
// the old optimizer first in that case.
//
// Sharded application protocol (async/param_server, DESIGN.md §5): one
// gradient application decomposes into
//
//   plan = begin_apply(grad)        global stage: measurement / tuning on
//                                   the full gradient (YellowFin clips and
//                                   tunes here); captures everything the
//                                   span sweeps need into an ApplyPlan
//   step_span(plan, lo, hi)         fused update sweep over arena span
//                                   [lo, hi); safe to run concurrently for
//                                   DISJOINT spans of the same plan or of
//                                   different plans -- all mutable per-span
//                                   state (values, velocity, moments) is
//                                   indexed by the span
//   end_apply(plan)                 global stage: advance the iteration
//
// step() is exactly begin_apply(arena grads) + step_span over the whole
// arena + end_apply, so a sharded application with one worker reproduces
// the synchronous trajectory bit for bit (tests/param_server_test.cpp).
// begin_apply/end_apply must be externally serialized (the parameter
// server runs them under its global stage lock); hyperparameter setters
// (set_lr, set_momentum, ...) count as global-stage calls too.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "autograd/variable.hpp"
#include "core/arena.hpp"
#include "core/state.hpp"

namespace yf::optim {

/// Everything a span sweep needs from the global stage, captured by value
/// so concurrent sweeps never read mutating optimizer state.
struct ApplyPlan {
  std::int64_t t = 0;  ///< iteration index the update math uses (0-based)
  double lr = 0.0;     ///< effective learning rate of this application
  double mu = 0.0;     ///< effective momentum (momentum-family optimizers)
};

class Optimizer {
 public:
  explicit Optimizer(std::vector<autograd::Variable> params);
  virtual ~Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Apply one update using the gradients currently stored on the params:
  /// begin_apply + one whole-arena step_span + end_apply.
  void step();

  /// Global stage of one gradient application. `grad` is the flattened
  /// gradient about to be applied (the arena gradient buffer in the
  /// synchronous path, a worker's own buffer at the parameter server) and
  /// may be modified in place (YellowFin's adaptive clipping).
  virtual ApplyPlan begin_apply(std::span<double> grad);

  /// Fused update sweep over arena span [lo, hi) using the captured plan.
  /// The gradient for the span must already be in the arena buffer.
  virtual void step_span(const ApplyPlan& plan, std::int64_t lo, std::int64_t hi) = 0;

  /// Closing global stage; advances the iteration counter.
  virtual void end_apply(const ApplyPlan& plan);

  /// Human-readable optimizer name for reports ("adam", "yellowfin", ...).
  virtual std::string name() const = 0;

  /// Current base learning rate (schedules and Fig. 11 factors hook here).
  virtual double lr() const = 0;
  virtual void set_lr(double lr) = 0;

  /// Zero all parameter gradients.
  void zero_grad();

  const std::vector<autograd::Variable>& params() const { return params_; }

  /// Flat parameter/gradient storage backing this optimizer. The mutable
  /// overload serves engines that stage gradients into the arena
  /// themselves (async/param_server copies each worker gradient in shard
  /// by shard before the span sweeps).
  const core::ParamArena& arena() const { return arena_; }
  core::ParamArena& arena() { return arena_; }

  /// Number of step() calls so far.
  std::int64_t iteration() const { return iteration_; }

  /// Serialize/restore the optimizer's mutable state bit-exactly: the
  /// iteration counter, externally driven hyperparameters (set_lr /
  /// set_momentum targets), and slot buffers (velocity,
  /// moments). Parameter VALUES live in the arena and are serialized by
  /// the arena's owner (dist/checkpoint, DESIGN.md §14). Configuration
  /// (betas, eps, nesterov, options structs) is NOT part of the snapshot:
  /// the restore target must be constructed identically, and loads fail
  /// with core::StateError on layout mismatch rather than drifting.
  virtual void save_state(core::StateWriter& w) const;
  virtual void load_state(core::StateReader& r);

 protected:
  std::vector<autograd::Variable> params_;
  core::ParamArena arena_;
  std::int64_t iteration_ = 0;
};

}  // namespace yf::optim
