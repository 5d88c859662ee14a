// YellowFin (Algorithm 1): momentum SGD whose learning rate and momentum
// are tuned every iteration from gradient measurements.
//
// Per step:
//   1. (optional) adaptive gradient clipping at threshold sqrt(h_max)
//      (Appendix F);
//   2. update CurvatureRange / GradientVariance / DistanceToOpt from the
//      (possibly clipped) gradient (Algorithms 2-4);
//   3. SingleStep closed form -> (mu_t, alpha_t) (Eq. 15, Appendix D);
//   4. smooth the hyperparameters themselves with beta-EWMA, apply slow
//      start alpha <- min(alpha_t, t * alpha_t / (10 w)) (Appendix E) and
//      the Fig. 11 manual lr_factor;
//   5. Polyak-momentum update v <- mu v - alpha g;  x <- x + v.
//
// The tuner works directly on the optimizer's ParamArena: the gradient is
// already one contiguous buffer, so clipping, the norm for Algorithms 2/4
// and the fused two-moment EWMA of Algorithm 3 all run as single passes
// with no flatten copy -- the measured per-step overhead stays in line
// with the paper's "negligible" claim.
#pragma once

#include <optional>
#include <span>

#include "optim/optimizer.hpp"
#include "tuner/curvature_range.hpp"
#include "tuner/distance_to_opt.hpp"
#include "tuner/gradient_variance.hpp"
#include "tuner/single_step.hpp"

namespace yf::tuner {

struct YellowFinOptions {
  double beta = 0.999;           ///< smoothing for all measurement EWMAs
  std::int64_t window = 20;      ///< curvature sliding-window width
  bool adaptive_clipping = true; ///< clip grads at sqrt(h_max) (App. F)
  bool slow_start = true;        ///< discount lr during warm-up (App. E)
  /// Warm-up length for slow start; <= 0 means the paper's 10 * window.
  std::int64_t slow_start_iters = 0;
  double lr_factor = 1.0;        ///< Fig. 11 manual multiplier on alpha
  bool smooth_hyperparams = true;///< EWMA on (mu_t, alpha_t) themselves
  /// Fixed-momentum ablation (Fig. 9): when set, the tuner still runs but
  /// the applied momentum is this constant.
  std::optional<double> force_momentum;
  /// Initial values used before measurements warm up.
  double lr0 = 1e-4;
  double mu0 = 0.0;
};

class YellowFin : public optim::Optimizer {
 public:
  YellowFin(std::vector<autograd::Variable> params, const YellowFinOptions& opts = {});

  /// Global stage: adaptive clipping (in place on `grad`), Algorithms 2-4
  /// measurement, SingleStep + smoothing + slow start. The returned plan
  /// carries the *effective* (post slow-start, post lr_factor) learning
  /// rate and the applied momentum (after force_momentum / closed-loop
  /// override), so sharded sweeps replay exactly what step() would do.
  optim::ApplyPlan begin_apply(std::span<double> grad) override;
  void step_span(const optim::ApplyPlan& plan, std::int64_t lo, std::int64_t hi) override;
  std::string name() const override { return "yellowfin"; }

  /// Base lr here means the tuner's current (smoothed) alpha.
  double lr() const override { return alpha_; }
  void set_lr(double lr) override { alpha_ = lr; }

  /// Tuner state introspection (benches/tests).
  double momentum() const { return mu_; }
  double target_momentum() const { return target_mu_; }      ///< pre-ablation mu_t
  double target_lr() const { return target_alpha_; }
  double h_max() const { return curvature_.count() ? curvature_.h_max() : 0.0; }
  double h_min() const { return curvature_.count() ? curvature_.h_min() : 0.0; }
  double grad_variance() const { return variance_.variance(); }
  double distance_to_opt() const { return distance_.distance(); }
  double last_clip_threshold() const { return last_clip_threshold_; }
  bool last_step_clipped() const { return last_step_clipped_; }

  /// Closed-loop hook (Algorithm 5): override the *applied* momentum for
  /// the next step without touching the tuner target.
  void set_applied_momentum(double mu) { applied_mu_override_ = mu; }
  void clear_applied_momentum() { applied_mu_override_.reset(); }

  const YellowFinOptions& options() const { return opts_; }

  /// Full tuner snapshot: iteration, (mu, alpha) smoothing state, the
  /// SingleStep targets, clipping flags, the closed-loop override, all
  /// measurement components (Algorithms 2-4) and the velocity buffer --
  /// everything a restored master needs to continue the trajectory
  /// bit-identically (DESIGN.md §14). Options are configuration and are
  /// NOT saved; restore into an identically configured instance.
  void save_state(core::StateWriter& w) const override;
  void load_state(core::StateReader& r) override;

 private:
  void measure(std::span<const double> flat_grad);

  YellowFinOptions opts_;
  CurvatureRange curvature_;
  GradientVariance variance_;
  DistanceToOpt distance_;
  Ewma mu_avg_, alpha_avg_;

  double mu_;            ///< smoothed applied momentum
  double alpha_;         ///< smoothed applied lr (before slow start / factor)
  double target_mu_;     ///< raw SingleStep output of the last step
  double target_alpha_;
  double last_clip_threshold_ = 0.0;
  bool last_step_clipped_ = false;
  std::optional<double> applied_mu_override_;
  tensor::Tensor velocity_;  ///< flat, aligned with the arena layout
};

}  // namespace yf::tuner
