#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "autograd/ops.hpp"
#include "optim/adagrad.hpp"
#include "optim/adam.hpp"
#include "optim/clipping.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/momentum_sgd.hpp"
#include "optim/sgd.hpp"
#include "tensor/random.hpp"

namespace ag = yf::autograd;
namespace optim = yf::optim;
namespace t = yf::tensor;

namespace {

/// One scalar parameter with a manually-set gradient.
struct ScalarParam {
  ag::Variable p;
  ScalarParam(double x0) : p(t::Tensor({1}, {x0}), true) {}
  void set_grad(double g) {
    p.zero_grad();
    p.node()->ensure_grad()[0] = g;
  }
  double x() const { return p.value()[0]; }
};

}  // namespace

TEST(Optimizer, RejectsEmptyParams) {
  EXPECT_THROW(optim::SGD({}, 0.1), std::invalid_argument);
}

TEST(Optimizer, RejectsNoGradParams) {
  ag::Variable frozen(t::Tensor({1}), false);
  EXPECT_THROW(optim::SGD({frozen}, 0.1), std::invalid_argument);
}

TEST(SGD, HandComputedStep) {
  ScalarParam sp(1.0);
  optim::SGD opt({sp.p}, 0.1);
  sp.set_grad(2.0);
  opt.step();
  EXPECT_NEAR(sp.x(), 1.0 - 0.1 * 2.0, 1e-15);
  EXPECT_EQ(opt.iteration(), 1);
}

TEST(SGD, LrSetter) {
  ScalarParam sp(0.0);
  optim::SGD opt({sp.p}, 0.1);
  opt.set_lr(0.5);
  EXPECT_EQ(opt.lr(), 0.5);
  sp.set_grad(1.0);
  opt.step();
  EXPECT_NEAR(sp.x(), -0.5, 1e-15);
}

TEST(MomentumSGD, MatchesPolyakRecurrence) {
  // x_{t+1} = x_t - lr g + mu (x_t - x_{t-1}) with constant gradient.
  const double lr = 0.1, mu = 0.9, g = 1.0;
  ScalarParam sp(0.0);
  optim::MomentumSGD opt({sp.p}, lr, mu);
  double x_prev = 0.0, x = 0.0;
  for (int i = 0; i < 10; ++i) {
    sp.set_grad(g);
    opt.step();
    const double x_next = x - lr * g + mu * (x - x_prev);
    x_prev = x;
    x = x_next;
    EXPECT_NEAR(sp.x(), x, 1e-12) << "step " << i;
  }
}

TEST(MomentumSGD, ZeroMomentumEqualsSgd) {
  ScalarParam a(1.0), b(1.0);
  optim::MomentumSGD m({a.p}, 0.05, 0.0);
  optim::SGD s({b.p}, 0.05);
  for (int i = 0; i < 5; ++i) {
    a.set_grad(0.7);
    b.set_grad(0.7);
    m.step();
    s.step();
    EXPECT_NEAR(a.x(), b.x(), 1e-15);
  }
}

TEST(MomentumSGD, SetMomentumTakesEffect) {
  ScalarParam sp(0.0);
  optim::MomentumSGD opt({sp.p}, 0.1, 0.9);
  opt.set_momentum(0.0);
  EXPECT_EQ(opt.momentum(), 0.0);
  sp.set_grad(1.0);
  opt.step();
  sp.set_grad(0.0);
  opt.step();  // with mu = 0 velocity dies instantly
  EXPECT_NEAR(sp.x(), -0.1, 1e-15);
}

TEST(MomentumSGD, NesterovDiffersFromPolyak) {
  ScalarParam a(0.0), b(0.0);
  optim::MomentumSGD polyak({a.p}, 0.1, 0.9, false);
  optim::MomentumSGD nesterov({b.p}, 0.1, 0.9, true);
  for (int i = 0; i < 3; ++i) {
    a.set_grad(1.0);
    b.set_grad(1.0);
    polyak.step();
    nesterov.step();
  }
  EXPECT_NE(a.x(), b.x());
  EXPECT_LT(b.x(), a.x());  // Nesterov moves further on constant gradients
}

TEST(MomentumSGD, VelocityAccessor) {
  ScalarParam sp(0.0);
  optim::MomentumSGD opt({sp.p}, 1.0, 0.5);
  sp.set_grad(1.0);
  opt.step();
  EXPECT_NEAR(opt.velocity(0)[0], -1.0, 1e-15);
}

TEST(Adam, FirstStepIsSignedLr) {
  // With bias correction the first Adam step is ~ lr * sign(g).
  ScalarParam sp(0.0);
  optim::Adam opt({sp.p}, 0.001);
  sp.set_grad(123.0);
  opt.step();
  EXPECT_NEAR(sp.x(), -0.001, 1e-6);
}

TEST(Adam, HandComputedTwoSteps) {
  const double lr = 0.1, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  ScalarParam sp(0.0);
  optim::Adam opt({sp.p}, lr, b1, b2, eps);
  double m = 0.0, v = 0.0, x = 0.0;
  const double grads[2] = {0.5, -0.3};
  for (int tstep = 1; tstep <= 2; ++tstep) {
    const double g = grads[tstep - 1];
    sp.set_grad(g);
    opt.step();
    m = b1 * m + (1 - b1) * g;
    v = b2 * v + (1 - b2) * g * g;
    const double mhat = m / (1 - std::pow(b1, tstep));
    const double vhat = v / (1 - std::pow(b2, tstep));
    x -= lr * mhat / (std::sqrt(vhat) + eps);
    EXPECT_NEAR(sp.x(), x, 1e-12);
  }
}

TEST(Adam, NegativeBeta1Accepted) {
  ScalarParam sp(0.0);
  optim::Adam opt({sp.p}, 0.01, -0.2);
  sp.set_grad(1.0);
  opt.step();
  EXPECT_TRUE(std::isfinite(sp.x()));
}

TEST(Adam, RejectsBadBetas) {
  ScalarParam sp(0.0);
  EXPECT_THROW(optim::Adam({sp.p}, 0.01, 1.0), std::invalid_argument);
  EXPECT_THROW(optim::Adam({sp.p}, 0.01, 0.9, 1.0), std::invalid_argument);
}

TEST(AdaGrad, AccumulatorShrinksSteps) {
  ScalarParam sp(0.0);
  optim::AdaGrad opt({sp.p}, 1.0);
  sp.set_grad(1.0);
  opt.step();
  const double first = -sp.x();
  sp.set_grad(1.0);
  opt.step();
  const double second = -sp.x() - first;
  EXPECT_NEAR(first, 1.0, 1e-6);
  EXPECT_LT(second, first);
  EXPECT_NEAR(second, 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(Clipping, NormComputedOverAllParams) {
  ScalarParam a(0.0), b(0.0);
  a.set_grad(3.0);
  b.set_grad(4.0);
  std::vector<ag::Variable> params = {a.p, b.p};
  EXPECT_NEAR(optim::global_grad_norm(params), 5.0, 1e-12);
}

TEST(Clipping, ScalesDownOnlyWhenAbove) {
  ScalarParam a(0.0), b(0.0);
  a.set_grad(3.0);
  b.set_grad(4.0);
  std::vector<ag::Variable> params = {a.p, b.p};
  const double pre = optim::clip_grad_norm(params, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-12);
  EXPECT_NEAR(optim::global_grad_norm(params), 1.0, 1e-12);
  // Below threshold: untouched.
  const double pre2 = optim::clip_grad_norm(params, 10.0);
  EXPECT_NEAR(pre2, 1.0, 1e-12);
  EXPECT_NEAR(optim::global_grad_norm(params), 1.0, 1e-12);
}

TEST(Clipping, RejectsNonPositiveThreshold) {
  ScalarParam a(0.0);
  std::vector<ag::Variable> params = {a.p};
  EXPECT_THROW(optim::clip_grad_norm(params, 0.0), std::invalid_argument);
}

TEST(Clipping, SquaredNormOverflowClipsInsteadOfZeroing) {
  // Finite elements whose squares overflow: the naive norm is inf and the
  // old code computed scale = max_norm/inf = 0, silently zeroing the
  // gradient. The fix clips to max_norm via a rescaled norm instead.
  ScalarParam a(0.0), b(0.0);
  a.set_grad(1e200);
  b.set_grad(2e200);
  std::vector<ag::Variable> params = {a.p, b.p};
  EXPECT_TRUE(std::isinf(optim::global_grad_norm(params)));
  const double pre = optim::clip_grad_norm(params, 1.0);
  EXPECT_TRUE(std::isfinite(pre));
  EXPECT_NEAR(pre, std::sqrt(5.0) * 1e200, 1e188);
  EXPECT_NEAR(optim::global_grad_norm(params), 1.0, 1e-12);
  // Direction is preserved, only the magnitude is clipped.
  EXPECT_NEAR(a.p.grad()[0] * 2.0, b.p.grad()[0], 1e-12);
}

TEST(Clipping, NanGradientSkipsStepDeterministically) {
  // A NaN norm fails `norm > max_norm`, so the old code passed NaNs
  // through unclipped into the optimizer state. The fix zeroes every
  // gradient (step becomes a no-op) and returns the non-finite norm so
  // callers can count skipped steps.
  ScalarParam a(0.5), b(0.5);
  a.set_grad(std::numeric_limits<double>::quiet_NaN());
  b.set_grad(3.0);
  std::vector<ag::Variable> params = {a.p, b.p};
  const double pre = optim::clip_grad_norm(params, 1.0);
  EXPECT_TRUE(std::isnan(pre));
  EXPECT_EQ(a.p.grad()[0], 0.0);
  EXPECT_EQ(b.p.grad()[0], 0.0);
  optim::MomentumSGD opt(params, 0.1, 0.9);
  opt.step();
  EXPECT_EQ(a.x(), 0.5);
  EXPECT_EQ(b.x(), 0.5);
}

TEST(Clipping, InfiniteGradientElementSkipsStep) {
  // An actually-infinite element cannot be rescued by rescaling -- the
  // gradient is garbage, so it is zeroed like the NaN case.
  ScalarParam a(0.0), b(0.0);
  a.set_grad(std::numeric_limits<double>::infinity());
  b.set_grad(1.0);
  std::vector<ag::Variable> params = {a.p, b.p};
  const double pre = optim::clip_grad_norm(params, 1.0);
  EXPECT_FALSE(std::isfinite(pre));
  EXPECT_EQ(a.p.grad()[0], 0.0);
  EXPECT_EQ(b.p.grad()[0], 0.0);
}

TEST(Clipping, ExplodingBackwardRecoversThroughBothPaths) {
  // End-to-end through autograd: a loss scaled by 1e160 produces huge but
  // finite gradients (squared-sum overflow -> rescale path); scaling by
  // 1e160 twice overflows the gradients themselves (-> skip path).
  t::Rng rng(17);
  ag::Variable w(rng.normal_tensor({4, 3}), /*requires_grad=*/true);
  ag::Variable x(rng.normal_tensor({5, 4}));
  std::vector<ag::Variable> params = {w};

  auto backward_scaled = [&](double s1, double s2) {
    w.zero_grad();
    auto loss = ag::mul_scalar(ag::mul_scalar(ag::mean(ag::square(ag::matmul(x, w))), s1), s2);
    loss.backward();
  };

  backward_scaled(1e160, 1.0);  // grads ~1e160: finite, norm overflows
  EXPECT_TRUE(std::isinf(optim::global_grad_norm(params)));
  EXPECT_TRUE(std::isfinite(optim::clip_grad_norm(params, 1.0)));
  EXPECT_NEAR(optim::global_grad_norm(params), 1.0, 1e-9);

  backward_scaled(1e160, 1e160);  // grads overflow to inf: unrecoverable
  EXPECT_FALSE(std::isfinite(optim::clip_grad_norm(params, 1.0)));
  EXPECT_EQ(optim::global_grad_norm(params), 0.0);
}

TEST(LrSchedule, ConstantIsOne) {
  optim::ConstantSchedule s;
  EXPECT_EQ(s.factor(0), 1.0);
  EXPECT_EQ(s.factor(100), 1.0);
}

TEST(LrSchedule, ExponentialDecay) {
  optim::ExponentialDecaySchedule s(0.5);
  EXPECT_EQ(s.factor(0), 1.0);
  EXPECT_EQ(s.factor(1), 0.5);
  EXPECT_EQ(s.factor(3), 0.125);
}

TEST(LrSchedule, DelayedDecayMatchesWsjProtocol) {
  // WSJ: decay 0.9 per epoch after epoch 14.
  optim::ExponentialDecaySchedule s(0.9, 14);
  EXPECT_EQ(s.factor(14), 1.0);
  EXPECT_NEAR(s.factor(15), 0.9, 1e-12);
  EXPECT_NEAR(s.factor(17), 0.9 * 0.9 * 0.9, 1e-12);
}
