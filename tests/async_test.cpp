#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <thread>
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

TEST(BlockingStalenessQueue, RejectsCapacityNotAboveStaleness) {
  EXPECT_THROW(async::BlockingStalenessQueue<int>(3, 3), std::invalid_argument);
  EXPECT_THROW(async::BlockingStalenessQueue<int>(-1, 4), std::invalid_argument);
}

TEST(BlockingStalenessQueue, PopDelaysByStaleness) {
  async::BlockingStalenessQueue<int> q(2, 8);
  EXPECT_TRUE(q.push(0));
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));  // now 3 > staleness: entry 0 is old enough
  EXPECT_EQ(q.pop().value(), 0);
  EXPECT_EQ(q.pending(), 2);
}

TEST(BlockingStalenessQueue, PopBlocksUntilEntryOldEnough) {
  async::BlockingStalenessQueue<int> q(1, 4);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    const auto v = q.pop();  // blocks: queue empty
    popped = true;
    EXPECT_EQ(v.value(), 10);
  });
  q.push(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped) << "one entry is not older than staleness 1";
  q.push(11);  // second entry ages the first past the bound
  consumer.join();
  EXPECT_TRUE(popped);
}

TEST(BlockingStalenessQueue, PushBlocksAtCapacity) {
  async::BlockingStalenessQueue<int> q(0, 2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks: pipeline full
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed) << "capacity 2 must hold the producer";
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed);
}

TEST(BlockingStalenessQueue, CloseDrainsThenSignalsEnd) {
  async::BlockingStalenessQueue<int> q(2, 8);
  q.push(1);
  q.push(2);  // both younger than staleness 2: only reachable by draining
  q.close();
  EXPECT_FALSE(q.push(99)) << "push after close is rejected";
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value()) << "closed and drained";
}

TEST(BlockingStalenessQueue, CloseUnblocksWaitingConsumer) {
  async::BlockingStalenessQueue<int> q(4, 8);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(BlockingStalenessQueue, TwoConsumersBothReturnOnClosedDrain) {
  // Closed queue, one entry, two consumers: one gets the entry, the
  // other must observe the drained close and return -- commit_pop has to
  // wake consumers waiting on reserved_ == 0, not only producers.
  async::BlockingStalenessQueue<int> q(2, 8);
  q.push(42);
  q.close();
  std::atomic<int> got{0}, empty{0};
  std::thread c1([&] { q.pop().has_value() ? got++ : empty++; });
  std::thread c2([&] { q.pop().has_value() ? got++ : empty++; });
  c1.join();
  c2.join();
  EXPECT_EQ(got.load(), 1);
  EXPECT_EQ(empty.load(), 1);
}

TEST(BlockingStalenessQueue, CloseRacingPushNeverLosesAcceptedItems) {
  // A push() that returns true must reach a consumer even when close()
  // lands between the producer's slot reservation and its commit.
  for (int round = 0; round < 20; ++round) {
    async::BlockingStalenessQueue<int> q(1, 4);
    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&q, &accepted, p] {
        for (int i = 0; i < 25; ++i) {
          if (q.push(p * 25 + i)) accepted++;
        }
      });
    }
    std::atomic<int> received{0};
    std::thread consumer([&] {
      while (q.pop()) received++;
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    q.close();
    for (auto& p : producers) p.join();
    consumer.join();
    EXPECT_EQ(received.load(), accepted.load()) << "round " << round;
  }
}

TEST(BlockingStalenessQueue, ManyProducersOneConsumerDeliversEverything) {
  async::BlockingStalenessQueue<int> q(3, 5);
  constexpr int kProducers = 4, kPerProducer = 50;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::vector<bool> seen(kProducers * kPerProducer, false);
  int received = 0;
  std::thread consumer([&] {
    while (auto v = q.pop()) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(*v)]);
      seen[static_cast<std::size_t>(*v)] = true;
      ++received;
    }
  });
  for (auto& p : producers) p.join();
  q.close();
  consumer.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
}

TEST(BlockingStalenessQueue, CloseWhileConsumerBlockedOnStalenessDrainsCleanly) {
  // Entries younger than the staleness bound are only reachable by a
  // drain; a consumer already blocked on the age condition must wake on
  // close(), receive them all, then observe the end of the stream.
  async::BlockingStalenessQueue<int> q(5, 8);
  q.push(1);
  q.push(2);  // both younger than staleness 5
  std::vector<int> got;
  std::thread consumer([&] {
    while (auto v = q.pop()) got.push_back(*v);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // consumer blocks
  q.close();
  consumer.join();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
}

TEST(BlockingStalenessQueue, CloseWhileProducersBlockedAtCapacityReleasesThem) {
  async::BlockingStalenessQueue<int> q(0, 2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));  // pipeline full
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&q, &rejected] {
      if (!q.push(99)) rejected++;  // blocks at capacity until close
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(rejected.load(), 0) << "producers must still be blocked";
  q.close();
  for (auto& p : producers) p.join();
  EXPECT_EQ(rejected.load(), 2) << "close must release blocked producers with push=false";
  // The two accepted entries drain in order.
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingStalenessQueue, RandomizedStressLosesAndDuplicatesNothing) {
  // Multi-producer / multi-consumer with randomized think times and a
  // close() landing at a different phase each round: every accepted item
  // is delivered exactly once, no item is invented, and per-producer FIFO
  // order survives the staleness delay.
  for (int round = 0; round < 6; ++round) {
    constexpr int kProducers = 4, kConsumers = 3, kPerProducer = 80;
    async::BlockingStalenessQueue<int> q(2, 5);
    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&q, &accepted, p, round] {
        std::mt19937 rng(static_cast<unsigned>(1000 * round + p));
        for (int i = 0; i < kPerProducer; ++i) {
          if (rng() % 4 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(rng() % 120));
          }
          if (q.push(p * kPerProducer + i)) accepted++;
        }
      });
    }
    std::vector<std::vector<int>> received(kConsumers);
    std::vector<std::thread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&q, &received, c, round] {
        std::mt19937 rng(static_cast<unsigned>(2000 * round + c));
        while (auto v = q.pop()) {
          received[static_cast<std::size_t>(c)].push_back(*v);
          if (rng() % 4 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(rng() % 120));
          }
        }
      });
    }
    // Close mid-flight on odd rounds (producers race the close), after the
    // producers are done on even rounds (pure drain).
    if (round % 2 == 1) {
      std::this_thread::sleep_for(std::chrono::microseconds(300 * round));
    } else {
      for (auto& p : producers) p.join();
    }
    q.close();
    for (auto& p : producers) {
      if (p.joinable()) p.join();
    }
    for (auto& c : consumers) c.join();

    std::vector<int> all;
    for (const auto& r : received) all.insert(all.end(), r.begin(), r.end());
    ASSERT_EQ(static_cast<int>(all.size()), accepted.load()) << "round " << round;
    std::vector<bool> seen(kProducers * kPerProducer, false);
    for (int v : all) {
      ASSERT_GE(v, 0) << "round " << round;
      ASSERT_LT(v, kProducers * kPerProducer) << "round " << round;
      EXPECT_FALSE(seen[static_cast<std::size_t>(v)]) << "duplicate " << v << " round " << round;
      seen[static_cast<std::size_t>(v)] = true;
    }
    // FIFO per producer within one consumer's stream: a consumer can never
    // see producer p's item i after its item j > i popped by the same
    // consumer... items are claimed in queue order, so each consumer's
    // subsequence per producer must be increasing.
    for (const auto& r : received) {
      std::vector<int> last(kProducers, -1);
      for (int v : r) {
        const int p = v / kPerProducer;
        EXPECT_LT(last[static_cast<std::size_t>(p)], v) << "round " << round;
        last[static_cast<std::size_t>(p)] = v;
      }
    }
  }
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
