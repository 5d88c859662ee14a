#include "train/metrics.hpp"

#include <gtest/gtest.h>

#include "train/grid_search.hpp"

namespace train = yf::train;

TEST(Smoothing, TrailingWindowMean) {
  const std::vector<double> c = {1, 2, 3, 4};
  const auto s = train::smooth_uniform(c, 2);
  EXPECT_NEAR(s[0], 1.0, 1e-12);
  EXPECT_NEAR(s[1], 1.5, 1e-12);
  EXPECT_NEAR(s[2], 2.5, 1e-12);
  EXPECT_NEAR(s[3], 3.5, 1e-12);
}

TEST(Smoothing, WindowOneIsIdentity) {
  const std::vector<double> c = {3, 1, 4};
  EXPECT_EQ(train::smooth_uniform(c, 1), c);
}

TEST(Smoothing, RejectsBadWindow) {
  EXPECT_THROW(train::smooth_uniform({1.0}, 0), std::invalid_argument);
}

TEST(IterationsToReach, FirstCrossing) {
  const std::vector<double> c = {5, 4, 3, 2, 3};
  EXPECT_EQ(train::iterations_to_reach(c, 3.0).value(), 2);
  EXPECT_EQ(train::iterations_to_reach(c, 5.0).value(), 0);
  EXPECT_FALSE(train::iterations_to_reach(c, 1.0).has_value());
}

TEST(Speedup, PaperProtocolExample) {
  // Baseline reaches 1.0 at iter 8; other at iter 4 -> 2x speedup.
  std::vector<double> baseline, other;
  for (int i = 0; i < 10; ++i) {
    baseline.push_back(9.0 - i);
    other.push_back(9.0 - 2 * i);
  }
  const auto s = train::speedup_over(baseline, other);
  EXPECT_NEAR(s.common_loss, 0.0, 1e-12);  // min(baseline) = 0 > min(other) = -9
  EXPECT_EQ(s.baseline_iters, 9);
  EXPECT_EQ(s.other_iters, 5);
  EXPECT_NEAR(s.ratio, 9.0 / 5.0, 1e-12);
}

TEST(Speedup, SlowerMethodHasRatioBelowOne) {
  std::vector<double> fast, slow;
  for (int i = 0; i < 20; ++i) {
    fast.push_back(10.0 / (i + 1));
    slow.push_back(20.0 / (i + 1));
  }
  const auto s = train::speedup_over(fast, slow);
  EXPECT_LT(s.ratio, 1.0);
}

TEST(Speedup, CommonLossIsMaxOfMins) {
  const std::vector<double> a = {5, 3, 2};     // min 2
  const std::vector<double> b = {6, 4, 3.5};   // min 3.5
  const auto s = train::speedup_over(a, b);
  EXPECT_EQ(s.common_loss, 3.5);
}

TEST(AverageCurves, ElementwiseMean) {
  const auto avg = train::average_curves({{1, 2}, {3, 4}});
  EXPECT_EQ(avg[0], 2.0);
  EXPECT_EQ(avg[1], 3.0);
  EXPECT_THROW(train::average_curves({{1}, {1, 2}}), std::invalid_argument);
  EXPECT_THROW(train::average_curves({}), std::invalid_argument);
}

TEST(GridSearch, PicksLowestLossHyper) {
  // Quadratic response: best hyper at 0.3.
  auto run = [](double hyper, std::uint64_t) {
    std::vector<double> curve;
    for (int i = 0; i < 50; ++i) {
      curve.push_back(1.0 + (hyper - 0.3) * (hyper - 0.3) + 1.0 / (i + 1));
    }
    return curve;
  };
  train::GridSearchOptions opts;
  opts.grid = {0.1, 0.2, 0.3, 0.4};
  opts.smooth_window = 5;
  const auto r = train::grid_search(run, opts);
  EXPECT_EQ(r.best_hyper, 0.3);
  EXPECT_EQ(r.scores.size(), 4u);
}

TEST(GridSearch, AveragesAcrossSeeds) {
  // Seed parity flips which hyper looks better; averaging must balance it.
  auto run = [](double hyper, std::uint64_t seed) {
    const double bias = (seed % 2 == 0) ? 0.5 : -0.5;
    return std::vector<double>(10, hyper + bias);
  };
  train::GridSearchOptions opts;
  opts.grid = {1.0, 2.0};
  opts.seeds = {0, 1};
  opts.smooth_window = 2;
  const auto r = train::grid_search(run, opts);
  EXPECT_EQ(r.best_hyper, 1.0);
  EXPECT_NEAR(r.best_loss, 1.0, 1e-12);
}

TEST(GridSearch, RejectsEmptyInputs) {
  train::GridSearchOptions opts;
  EXPECT_THROW(train::grid_search([](double, std::uint64_t) { return std::vector<double>{1.0}; },
                                  opts),
               std::invalid_argument);
}
