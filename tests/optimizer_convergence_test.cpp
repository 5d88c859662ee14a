// Parameterized convergence properties: every optimizer in the library
// must drive a strongly-convex quadratic bowl to (near) its optimum, at
// any conditioning in the sweep, and the iterates must stay finite.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "optim/adagrad.hpp"
#include "optim/adam.hpp"
#include "optim/momentum_sgd.hpp"
#include "optim/sgd.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace optim = yf::optim;
namespace t = yf::tensor;

namespace {

struct ConvergenceCase {
  std::string optimizer;
  double lr;          ///< ignored by yellowfin
  double kappa;       ///< condition number of the diagonal quadratic
  double noise;       ///< gradient noise stddev
  std::int64_t steps;
  double tol;         ///< final loss bound
};

std::string case_name(const ::testing::TestParamInfo<ConvergenceCase>& info) {
  std::string n = info.param.optimizer + "_k" + std::to_string(static_cast<int>(info.param.kappa));
  if (info.param.noise > 0) n += "_noisy";
  return n;
}

class OptimizerConvergence : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(OptimizerConvergence, ReachesQuadraticOptimum) {
  const auto& p = GetParam();
  const std::int64_t dim = 8;
  ag::Variable x(t::Tensor({dim}), true);
  x.value().fill(2.0);
  // Diagonal curvatures log-spaced in [1, kappa].
  std::vector<double> h(static_cast<std::size_t>(dim));
  for (std::int64_t j = 0; j < dim; ++j) {
    h[static_cast<std::size_t>(j)] =
        std::pow(p.kappa, static_cast<double>(j) / static_cast<double>(dim - 1));
  }

  std::unique_ptr<optim::Optimizer> opt;
  if (p.optimizer == "sgd") {
    opt = std::make_unique<optim::SGD>(std::vector<ag::Variable>{x}, p.lr);
  } else if (p.optimizer == "momentum") {
    opt = std::make_unique<optim::MomentumSGD>(std::vector<ag::Variable>{x}, p.lr, 0.9);
  } else if (p.optimizer == "nesterov") {
    opt = std::make_unique<optim::MomentumSGD>(std::vector<ag::Variable>{x}, p.lr, 0.9, true);
  } else if (p.optimizer == "adam") {
    opt = std::make_unique<optim::Adam>(std::vector<ag::Variable>{x}, p.lr);
  } else if (p.optimizer == "adagrad") {
    opt = std::make_unique<optim::AdaGrad>(std::vector<ag::Variable>{x}, p.lr);
  } else {
    opt = std::make_unique<yf::tuner::YellowFin>(std::vector<ag::Variable>{x});
  }

  t::Rng rng(7);
  double loss = 0.0;
  for (std::int64_t it = 0; it < p.steps; ++it) {
    x.zero_grad();
    auto& g = x.node()->ensure_grad();
    loss = 0.0;
    for (std::int64_t j = 0; j < dim; ++j) {
      const double hv = h[static_cast<std::size_t>(j)];
      loss += 0.5 * hv * x.value()[j] * x.value()[j];
      g[j] = hv * x.value()[j] + p.noise * rng.normal();
    }
    opt->step();
    ASSERT_TRUE(std::isfinite(x.value()[0])) << "diverged at step " << it;
  }
  EXPECT_LT(loss, p.tol) << p.optimizer;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OptimizerConvergence,
    ::testing::Values(
        // Well-conditioned, noiseless.
        ConvergenceCase{"sgd", 0.3, 2.0, 0.0, 400, 1e-8},
        ConvergenceCase{"momentum", 0.1, 2.0, 0.0, 400, 1e-8},
        ConvergenceCase{"nesterov", 0.1, 2.0, 0.0, 400, 1e-8},
        ConvergenceCase{"adam", 0.05, 2.0, 0.0, 800, 1e-6},
        ConvergenceCase{"adagrad", 0.5, 2.0, 0.0, 800, 1e-4},
        ConvergenceCase{"yellowfin", 0.0, 2.0, 0.0, 1500, 1e-4},
        // Ill-conditioned (kappa = 100).
        ConvergenceCase{"sgd", 0.015, 100.0, 0.0, 4000, 1e-4},
        ConvergenceCase{"momentum", 0.012, 100.0, 0.0, 2000, 1e-6},
        ConvergenceCase{"adam", 0.05, 100.0, 0.0, 2000, 1e-6},
        // YellowFin warms up slowly on deterministic ill-conditioned bowls
        // (curvature proxy ||g||^2 starts huge, forcing a tiny lr), then
        // accelerates as mu -> 1: needs ~7k steps to clear the bowl.
        ConvergenceCase{"yellowfin", 0.0, 100.0, 0.0, 7000, 1e-2},
        // Noisy gradients: reach the noise floor, not the exact optimum.
        ConvergenceCase{"momentum", 0.01, 10.0, 0.1, 2000, 0.05},
        ConvergenceCase{"adam", 0.01, 10.0, 0.1, 2000, 0.05},
        ConvergenceCase{"yellowfin", 0.0, 10.0, 0.1, 2500, 0.05}),
    case_name);

// Acceleration property: on an ill-conditioned quadratic, tuned momentum
// converges strictly faster than tuned gradient descent -- the classical
// result (Sec. 2.1) underlying the whole paper.
TEST(MomentumAcceleration, BeatsGradientDescentOnIllConditioned) {
  const double kappa = 400.0;
  const double h_lo = 1.0, h_hi = kappa;
  auto run = [&](double lr, double mu, int steps) {
    double x1 = 1.0, x1p = 1.0, x2 = 1.0, x2p = 1.0;  // two extreme directions
    for (int i = 0; i < steps; ++i) {
      const double n1 = x1 - lr * h_lo * x1 + mu * (x1 - x1p);
      const double n2 = x2 - lr * h_hi * x2 + mu * (x2 - x2p);
      x1p = x1;
      x1 = n1;
      x2p = x2;
      x2 = n2;
    }
    return std::max(std::abs(x1), std::abs(x2));
  };
  // Optimal GD: lr = 2/(h_lo + h_hi); optimal momentum: Eq. 2 + Eq. 9 lr.
  const double gd = run(2.0 / (h_lo + h_hi), 0.0, 300);
  const double smu = (std::sqrt(kappa) - 1.0) / (std::sqrt(kappa) + 1.0);
  const double mu = smu * smu;
  const double momentum = run((1.0 - std::sqrt(mu)) * (1.0 - std::sqrt(mu)) / h_lo, mu, 300);
  EXPECT_LT(momentum, gd * 1e-3);
}

}  // namespace
