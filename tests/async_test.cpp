#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "async/async_simulator.hpp"
#include "async/staleness_queue.hpp"
#include "async/total_momentum.hpp"
#include "optim/momentum_sgd.hpp"
#include "sim/noisy_quadratic.hpp"
#include "tensor/random.hpp"

namespace async = yf::async;
namespace ag = yf::autograd;
namespace t = yf::tensor;

TEST(StalenessQueue, ZeroStalenessIsPassThrough) {
  async::StalenessQueue<int> q(0);
  EXPECT_EQ(q.push(7).value(), 7);
  EXPECT_EQ(q.push(8).value(), 8);
}

TEST(StalenessQueue, DelaysByExactlyTau) {
  async::StalenessQueue<int> q(3);
  EXPECT_FALSE(q.push(0).has_value());
  EXPECT_FALSE(q.push(1).has_value());
  EXPECT_FALSE(q.push(2).has_value());
  EXPECT_EQ(q.push(3).value(), 0);  // value pushed 3 steps ago
  EXPECT_EQ(q.push(4).value(), 1);
  EXPECT_EQ(q.pending(), 3u);
}

TEST(StalenessQueue, RejectsNegativeStaleness) {
  EXPECT_THROW(async::StalenessQueue<int>(-1), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(async::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(async::median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(async::median({5.0}), 5.0);
  EXPECT_THROW(async::median({}), std::invalid_argument);
}

namespace {

/// The median by full sort: the reference the selection must equal.
double sorted_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid] + v[mid - 1]);
}

/// The inputs the selection is checked on, each of size n.
std::vector<std::pair<std::string, std::vector<double>>> selection_inputs(std::size_t n,
                                                                          t::Rng& rng) {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  const auto make = [&](const std::string& name, auto value_at) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = value_at(i);
    out.emplace_back(name, std::move(v));
  };
  make("uniform", [&](std::size_t) { return rng.uniform(-1.0, 1.0); });
  make("duplicates", [&](std::size_t) { return std::floor(rng.uniform(0.0, 4.0)); });
  make("all-equal", [](std::size_t) { return 0.3; });
  make("sorted", [](std::size_t i) { return static_cast<double>(i); });
  make("reverse-sorted", [n](std::size_t i) { return static_cast<double>(n - i); });
  make("organ-pipe", [n](std::size_t i) { return static_cast<double>(std::min(i, n - 1 - i)); });
  // Within a few ulps of one double: the near-ties of one-worker ratios.
  make("few-ulps", [&](std::size_t) {
    double x = 0.9;
    const int steps = static_cast<int>(rng.uniform(-4.0, 4.0));
    for (int s = 0; s < std::abs(steps); ++s) x = std::nextafter(x, steps < 0 ? 0.0 : 1.0);
    return x;
  });
  return out;
}

std::vector<std::size_t> selection_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 64; ++n) sizes.push_back(n);
  sizes.push_back(4925);  // the TS-sub arena: one ratio per coordinate
  return sizes;
}

}  // namespace

TEST(Median, SelectionEqualsSortedReference) {
  t::Rng rng(17);
  for (const std::size_t n : selection_sizes()) {
    for (auto& [name, values] : selection_inputs(n, rng)) {
      const double expected = sorted_median(values);
      EXPECT_EQ(async::median(values), expected) << name << ", n " << n;
      std::vector<double> inplace = values;
      EXPECT_EQ(async::median_inplace(inplace), expected) << name << ", n " << n;
      // In place means reordered, not rewritten.
      std::sort(inplace.begin(), inplace.end());
      std::sort(values.begin(), values.end());
      EXPECT_EQ(inplace, values) << name << ", n " << n;
    }
  }
}

TEST(Median, InputWithNaNTerminates) {
  // A NaN has no rank, so the value is unspecified; the selection must
  // still return, whatever the NaNs' number and positions.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  t::Rng rng(23);
  for (const std::size_t n : selection_sizes()) {
    for (auto& [name, values] : selection_inputs(n, rng)) {
      std::vector<double> one = values;
      one[n / 2] = nan;
      (void)async::median_inplace(one);
      std::vector<double> every_third = values;
      for (std::size_t i = 0; i < n; i += 3) every_third[i] = nan;
      (void)async::median_inplace(every_third);
    }
    std::vector<double> all(n, nan);
    EXPECT_TRUE(std::isnan(async::median_inplace(all))) << n;
  }
}

TEST(TotalMomentum, Eq37RatiosMatchBranchingLoop) {
  // The branch-free ratio loop keeps exactly the coordinates and values
  // of the loop that skips |den| < eps with a branch, NaN movement included.
  const std::vector<double> x_prev = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  const std::vector<double> x_read = {1.5, 2.0, 3.0 + 1e-12, 3.0, 5.25, std::nan(""), 7.5};
  const std::vector<double> x_next = {1.75, 2.1, 3.0, 2.5, 5.5, 6.0, 7.5};
  const std::vector<double> g = {0.5, -1.0, 2.0, 0.25, 0.0, 1.0, -0.5};
  const double lr = 0.1, eps = 1e-10;
  std::vector<double> expected;
  for (std::size_t i = 0; i < x_read.size(); ++i) {
    const double den = x_read[i] - x_prev[i];
    if (std::abs(den) < eps) continue;
    expected.push_back((x_next[i] - x_read[i] + lr * g[i]) / den);
  }
  std::vector<double> out(x_read.size());
  const std::size_t count = async::eq37_ratios(x_prev, x_read, x_next, g, lr, eps, out);
  ASSERT_EQ(count, expected.size());
  for (std::size_t i = 0; i < count; ++i) {
    if (std::isnan(expected[i])) {
      EXPECT_TRUE(std::isnan(out[i])) << i;
    } else {
      EXPECT_EQ(out[i], expected[i]) << i;
    }
  }
  std::vector<double> short_out(x_read.size() - 1);
  EXPECT_THROW(async::eq37_ratios(x_prev, x_read, x_next, g, lr, eps, short_out),
               std::invalid_argument);
}

TEST(TotalMomentum, NoEstimateUntilHistoryFills) {
  async::TotalMomentumEstimator est(2);
  const t::Tensor x({2}, {1.0, 2.0});
  const t::Tensor g({2}, {0.1, 0.1});
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(est.estimate().has_value());
    est.record(x, g, 0.1);
  }
  // tau + 3 = 5 records needed.
  est.record(x, g, 0.1);
  // All-identical iterates: denominators are 0 -> still no estimate.
  EXPECT_FALSE(est.estimate().has_value());
}

TEST(TotalMomentum, RecoversAlgorithmicMomentumSynchronously) {
  // Run exact momentum GD on a quadratic; with tau = 0 the estimator must
  // read back exactly the algorithmic momentum.
  const double mu = 0.6, alpha = 0.05, h = 1.3;
  async::TotalMomentumEstimator est(0);
  t::Tensor x({3}, {1.0, -2.0, 0.7});
  t::Tensor x_prev = x.clone();
  for (int step = 0; step < 10; ++step) {
    t::Tensor g({3});
    for (int j = 0; j < 3; ++j) g[j] = h * x[j];
    est.record(x, g, alpha);
    t::Tensor x_next = x.clone();
    for (int j = 0; j < 3; ++j) x_next[j] = x[j] - alpha * g[j] + mu * (x[j] - x_prev[j]);
    x_prev = x;
    x = x_next;
    if (auto e = est.estimate()) {
      EXPECT_NEAR(*e, mu, 1e-9) << "step " << step;
    }
  }
  EXPECT_TRUE(est.estimate().has_value());
}

TEST(TotalMomentum, SmoothedTracksEstimates) {
  async::TotalMomentumEstimator est(0);
  t::Tensor x({2}, {1.0, 1.0});
  t::Tensor x_prev = x.clone();
  const double mu = 0.4, alpha = 0.1;
  for (int step = 0; step < 30; ++step) {
    t::Tensor g({2});
    for (int j = 0; j < 2; ++j) g[j] = x[j];
    est.record(x, g, alpha);
    t::Tensor x_next = x.clone();
    for (int j = 0; j < 2; ++j) x_next[j] = x[j] - alpha * g[j] + mu * (x[j] - x_prev[j]);
    x_prev = x;
    x = x_next;
    est.smoothed(0.5);
  }
  EXPECT_NEAR(est.smoothed(0.5), mu, 1e-6);
}

namespace {

/// Quadratic bowl task on a Variable parameter, for AsyncTrainer tests.
struct BowlTask {
  ag::Variable x;
  double h;
  double noise;
  t::Rng rng{31};
  BowlTask(std::int64_t dim, double curvature, double noise_std)
      : x(t::Tensor({dim}), true), h(curvature), noise(noise_std) {
    x.value().fill(3.0);
  }
  double grad() {
    auto& g = x.node()->ensure_grad();
    double loss = 0.0;
    for (std::int64_t j = 0; j < g.size(); ++j) {
      loss += 0.5 * h * x.value()[j] * x.value()[j];
      g[j] = h * x.value()[j] + noise * rng.normal();
    }
    return loss;
  }
};

}  // namespace

TEST(AsyncTrainer, RequiresOptimizer) {
  EXPECT_THROW(async::AsyncTrainer(nullptr, [] { return 0.0; }, {}), std::invalid_argument);
}

TEST(AsyncTrainer, ClosedLoopRequiresYellowFin) {
  BowlTask task(2, 1.0, 0.0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.01, 0.9);
  async::AsyncTrainerOptions opts;
  opts.closed_loop = true;
  EXPECT_THROW(async::AsyncTrainer(opt, [&] { return task.grad(); }, opts),
               std::invalid_argument);
}

TEST(AsyncTrainer, PipelineFillsBeforeUpdating) {
  BowlTask task(2, 1.0, 0.0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.01, 0.0);
  async::AsyncTrainerOptions opts;
  opts.staleness = 4;
  async::AsyncTrainer trainer(opt, [&] { return task.grad(); }, opts);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(trainer.step().applied_update);
    EXPECT_EQ(task.x.value()[0], 3.0);  // untouched while filling
  }
  EXPECT_TRUE(trainer.step().applied_update);
  EXPECT_NE(task.x.value()[0], 3.0);
}

TEST(AsyncTrainer, StaleGradientIsApplied) {
  // With staleness 1 and a deterministic gradient, the first applied
  // update must use the gradient from the *initial* iterate.
  BowlTask task(1, 2.0, 0.0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.1, 0.0);
  async::AsyncTrainerOptions opts;
  opts.staleness = 1;
  async::AsyncTrainer trainer(opt, [&] { return task.grad(); }, opts);
  trainer.step();  // queue fill: grad at x = 3 -> g = 6
  trainer.step();  // applies g = 6: x = 3 - 0.1*6 = 2.4
  EXPECT_NEAR(task.x.value()[0], 2.4, 1e-12);
  trainer.step();  // applies grad computed at x = 3 again? no: at 3 (2nd fill step) -> 2.4 - 0.6
  EXPECT_NEAR(task.x.value()[0], 1.8, 1e-12);
}

TEST(AsyncTrainer, MeasuresAsynchronyInducedMomentum) {
  // Momentum SGD with mu = 0 under staleness: measured total momentum must
  // be significantly above 0 (asynchrony begets momentum).
  BowlTask task(30, 1.0, 0.01);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(
      std::vector<ag::Variable>{task.x}, 0.05, 0.0);
  async::AsyncTrainerOptions opts;
  opts.staleness = 8;
  async::AsyncTrainer trainer(opt, [&] { return task.grad(); }, opts);
  // Individual mu_hat_T estimates are noisy (the red dots of Fig. 4); the
  // paper reads the running average, so test the mean over many steps.
  double sum = 0.0;
  int estimates = 0;
  for (int i = 0; i < 500; ++i) {
    const auto stats = trainer.step();
    if (stats.mu_hat_total && i > 100) {
      sum += *stats.mu_hat_total;
      ++estimates;
    }
  }
  ASSERT_GT(estimates, 100);
  EXPECT_GT(sum / estimates, 0.05);
}
