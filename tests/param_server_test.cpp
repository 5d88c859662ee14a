// Sharded parameter-server tests (async/param_server, DESIGN.md §5):
// shard layout, pull/push mechanics, the 1e-12 trajectory-parity pinning
// discipline extended to the async layer (one worker / one shard must
// reproduce the synchronous fused sweep exactly), shard-count invariance,
// real nn::Module worker replicas, and the closed-loop controller keeping
// measured total momentum on target under emergent staleness.
#include "async/param_server.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "core/arena.hpp"
#include "core/kernels/backend.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "optim/adam.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace async = yf::async;
namespace core = yf::core;
namespace t = yf::tensor;

namespace {

std::vector<ag::Variable> make_params(const std::vector<t::Shape>& shapes, std::uint64_t seed) {
  t::Rng rng(seed);
  std::vector<ag::Variable> params;
  for (const auto& s : shapes) params.emplace_back(rng.normal_tensor(s), true);
  return params;
}

/// Noisy-quadratic gradient g = h*x + noise on every parameter,
/// deterministic per Rng state (same helper as tests/arena_test.cpp).
void quad_grads(std::vector<ag::Variable>& params, double h, t::Rng& rng) {
  for (auto& p : params) {
    const auto x = p.value().data();
    auto g = p.node()->ensure_grad().data();
    for (std::size_t j = 0; j < g.size(); ++j) g[j] = h * x[j] + 0.01 * rng.normal();
  }
}

std::vector<double> flat_values(const std::vector<ag::Variable>& params) {
  std::vector<double> out;
  for (const auto& p : params) {
    const auto v = p.value().data();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

const std::vector<t::Shape> kShapes = {{5, 3}, {8}, {2, 6}, {1}};  // 36 scalars

using OptFactory =
    std::function<std::shared_ptr<yf::optim::Optimizer>(std::vector<ag::Variable>)>;

std::shared_ptr<yf::optim::Optimizer> make_momentum(std::vector<ag::Variable> p) {
  return std::make_shared<yf::optim::MomentumSGD>(std::move(p), 0.02, 0.9);
}

std::shared_ptr<yf::optim::Optimizer> make_yellowfin(std::vector<ag::Variable> p) {
  yf::tuner::YellowFinOptions opts;
  opts.beta = 0.99;
  return std::make_shared<yf::tuner::YellowFin>(std::move(p), opts);
}

std::shared_ptr<yf::optim::Optimizer> make_adam(std::vector<ag::Variable> p) {
  return std::make_shared<yf::optim::Adam>(std::move(p), 0.01);
}

/// Drive the server inline (no threads) with one worker for `steps`
/// noisy-quadratic rounds; returns the final master values.
std::vector<double> run_server_trajectory(const OptFactory& make_opt, std::int64_t shards,
                                          int steps) {
  auto master = make_params(kShapes, 77);
  auto opt = make_opt(master);
  async::ParamServerOptions sopts;
  sopts.shards = shards;
  async::ShardedParamServer server(opt, sopts);

  auto worker_params = make_params(kShapes, 77);  // replica: same init values
  core::ParamArena replica(worker_params);
  t::Rng noise(123);
  for (int s = 0; s < steps; ++s) {
    const auto ticket = server.pull(replica.values());
    replica.zero_grads();
    quad_grads(worker_params, 1.3, noise);
    server.push(replica.grads(), ticket);
  }
  return flat_values(master);
}

/// The synchronous reference: the plain fused optimizer sweep.
std::vector<double> run_sync_trajectory(const OptFactory& make_opt, int steps) {
  auto params = make_params(kShapes, 77);
  auto opt = make_opt(params);
  t::Rng noise(123);
  for (int s = 0; s < steps; ++s) {
    opt->zero_grad();
    quad_grads(params, 1.3, noise);
    opt->step();
  }
  return flat_values(params);
}

}  // namespace

TEST(ShardedParamServer, ShardLayoutCoversArenaContiguously) {
  auto params = make_params(kShapes, 1);
  async::ParamServerOptions opts;
  opts.shards = 5;
  async::ShardedParamServer server(make_momentum(params), opts);
  ASSERT_EQ(server.size(), 36);
  ASSERT_EQ(server.shard_count(), 5);
  std::int64_t expect_lo = 0;
  for (std::size_t k = 0; k < 5; ++k) {
    const auto [lo, hi] = server.shard_range(k);
    EXPECT_EQ(lo, expect_lo) << k;
    EXPECT_GT(hi, lo) << k;
    // Balanced split: every shard within one scalar of 36/5.
    EXPECT_GE(hi - lo, 7) << k;
    EXPECT_LE(hi - lo, 8) << k;
    EXPECT_EQ(server.shard_version(k), 0);
    expect_lo = hi;
  }
  EXPECT_EQ(expect_lo, 36);
  // Shard windows alias the master storage.
  auto view = server.shard_values(2);
  view[0] = 1234.5;
  const auto [lo2, hi2] = server.shard_range(2);
  EXPECT_EQ(server.optimizer().arena().values()[static_cast<std::size_t>(lo2)], 1234.5);
}

TEST(ShardedParamServer, ClampsShardCountToArenaSize) {
  auto params = make_params({{3}}, 2);
  async::ParamServerOptions opts;
  opts.shards = 64;
  async::ShardedParamServer server(make_momentum(params), opts);
  EXPECT_EQ(server.shard_count(), 3);
}

TEST(ShardedParamServer, RejectsBadConfigurations) {
  EXPECT_THROW(async::ShardedParamServer(nullptr, {}), std::invalid_argument);

  auto params = make_params({{4}}, 3);
  async::ParamServerOptions bad_history;
  bad_history.history = 2;
  EXPECT_THROW(async::ShardedParamServer(make_momentum(params), bad_history),
               std::invalid_argument);

  // Closed loop needs a momentum target: plain MomentumSGD without
  // mu_target is rejected, with mu_target accepted.
  async::ParamServerOptions loop;
  loop.closed_loop = true;
  EXPECT_THROW(async::ShardedParamServer(make_momentum(params), loop), std::invalid_argument);
  loop.mu_target = 0.5;
  EXPECT_NO_THROW(async::ShardedParamServer(make_momentum(params), loop));

  async::ShardedParamServer server(make_momentum(params), {});
  std::vector<double> wrong(3);
  EXPECT_THROW(server.pull(wrong), std::invalid_argument);
  std::vector<double> values(4);
  const auto ticket = server.pull(values);
  EXPECT_THROW(server.push(wrong, ticket), std::invalid_argument);
  std::vector<double> grad(4, 0.1);
  EXPECT_THROW(server.push(grad, async::PullTicket{}), std::invalid_argument);
}

TEST(ShardedParamServer, PushAdvancesEveryShardVersion) {
  auto params = make_params(kShapes, 4);
  async::ParamServerOptions opts;
  opts.shards = 3;
  async::ShardedParamServer server(make_momentum(params), opts);
  std::vector<double> snapshot(static_cast<std::size_t>(server.size()));
  const auto ticket = server.pull(snapshot);
  for (std::int64_t v : ticket.versions) EXPECT_EQ(v, 0);
  std::vector<double> grad(static_cast<std::size_t>(server.size()), 0.01);
  const auto stats = server.push(grad, ticket);
  EXPECT_EQ(stats.update_index, 1);
  EXPECT_EQ(server.updates(), 1);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(server.shard_version(k), 1);
}

// ---------------------------------------------------------------------------
// Parity: the arena pinning discipline extended to the async layer. One
// worker and one shard must reproduce the synchronous fused sweep to
// 1e-12, for momentum SGD and for the full YellowFin tuner.
// ---------------------------------------------------------------------------

TEST(ShardedParamServer, OneWorkerOneShardMatchesSynchronousMomentumSGD) {
  const auto server_traj = run_server_trajectory(make_momentum, 1, 200);
  const auto sync_traj = run_sync_trajectory(make_momentum, 200);
  ASSERT_EQ(server_traj.size(), sync_traj.size());
  for (std::size_t i = 0; i < sync_traj.size(); ++i) {
    EXPECT_NEAR(server_traj[i], sync_traj[i], 1e-12) << i;
  }
}

TEST(ShardedParamServer, OneWorkerOneShardMatchesSynchronousYellowFin) {
  const auto server_traj = run_server_trajectory(make_yellowfin, 1, 150);
  const auto sync_traj = run_sync_trajectory(make_yellowfin, 150);
  ASSERT_EQ(server_traj.size(), sync_traj.size());
  for (std::size_t i = 0; i < sync_traj.size(); ++i) {
    EXPECT_NEAR(server_traj[i], sync_traj[i], 1e-12) << i;
  }
}

TEST(ShardedParamServer, OneWorkerOneShardMatchesSynchronousAdam) {
  // Adam exercises the iteration-indexed part of the ApplyPlan protocol
  // (bias correction from plan.t rather than a mutating counter).
  const auto server_traj = run_server_trajectory(make_adam, 1, 200);
  const auto sync_traj = run_sync_trajectory(make_adam, 200);
  ASSERT_EQ(server_traj.size(), sync_traj.size());
  for (std::size_t i = 0; i < sync_traj.size(); ++i) {
    EXPECT_NEAR(server_traj[i], sync_traj[i], 1e-12) << i;
  }
}

TEST(ShardedParamServer, TrajectoryInvariantToKernelBackend) {
  // Server trajectories are pinned bit-for-bit across kernel backends:
  // the per-shard fused sweeps are elementwise (per-element arithmetic
  // identical by construction) and YellowFin's measured reductions
  // follow the canonical lane-blocked order on both backends.
  if (!core::simd_supported()) GTEST_SKIP() << "no AVX2 on this machine";
  const auto previous = core::active_kernel_backend();
  for (const auto& factory :
       {OptFactory(make_momentum), OptFactory(make_yellowfin), OptFactory(make_adam)}) {
    core::set_kernel_backend(core::KernelBackend::kScalar);
    const auto scalar_traj = run_server_trajectory(factory, 3, 120);
    core::set_kernel_backend(core::KernelBackend::kSimd);
    const auto simd_traj = run_server_trajectory(factory, 3, 120);
    ASSERT_EQ(scalar_traj.size(), simd_traj.size());
    for (std::size_t i = 0; i < scalar_traj.size(); ++i) {
      EXPECT_EQ(scalar_traj[i], simd_traj[i]) << i;
    }
  }
  core::set_kernel_backend(previous);
}

TEST(ShardedParamServer, TrajectoryInvariantToShardCount) {
  // Sharding partitions the same fused sweep into windows; per-element
  // arithmetic is unchanged, so the trajectory must not move at all.
  for (const auto& factory :
       {OptFactory(make_momentum), OptFactory(make_yellowfin), OptFactory(make_adam)}) {
    const auto one = run_server_trajectory(factory, 1, 120);
    const auto five = run_server_trajectory(factory, 5, 120);
    ASSERT_EQ(one.size(), five.size());
    for (std::size_t i = 0; i < one.size(); ++i) EXPECT_EQ(one[i], five[i]) << i;
  }
}

TEST(ShardedParamServer, SingleWorkerMeasuresAlgorithmicMomentumExactly) {
  // With one worker there is no asynchrony: every per-coordinate Eq. 37
  // ratio collapses to the algorithmic momentum identically.
  auto master = make_params({{24}}, 9);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(master, 0.05, 0.6);
  async::ParamServerOptions sopts;
  sopts.shards = 4;
  async::ShardedParamServer server(opt, sopts);
  auto worker_params = make_params({{24}}, 9);
  core::ParamArena replica(worker_params);
  t::Rng noise(5);
  for (int s = 0; s < 40; ++s) {
    const auto ticket = server.pull(replica.values());
    replica.zero_grads();
    quad_grads(worker_params, 1.0, noise);
    const auto stats = server.push(replica.grads(), ticket);
    if (s >= 2) {
      ASSERT_TRUE(stats.mu_hat_total.has_value()) << s;
      EXPECT_NEAR(*stats.mu_hat_total, 0.6, 1e-9) << s;
    }
  }
}

// ---------------------------------------------------------------------------
// Real model replicas on real threads.
// ---------------------------------------------------------------------------

namespace {

/// A real nn::Module worker task: softmax regression on a fixed synthetic
/// cluster dataset. Each call builds its own Linear replica plus a
/// minibatch stream seeded per worker.
async::ServerWorker make_linear_worker(std::uint64_t seed) {
  t::Rng model_rng(1000 + seed);
  auto model = std::make_shared<yf::nn::Linear>(4, 3, model_rng);
  auto rng = std::make_shared<t::Rng>(seed);
  async::ServerWorker worker;
  worker.params = model->parameters();
  worker.grad_fn = [model, rng] {
    const std::int64_t batch = 16;
    t::Tensor x({batch, 4});
    std::vector<std::int64_t> y(static_cast<std::size_t>(batch));
    for (std::int64_t i = 0; i < batch; ++i) {
      const std::int64_t cls = static_cast<std::int64_t>(rng->uniform(0.0, 3.0)) % 3;
      y[static_cast<std::size_t>(i)] = cls;
      for (std::int64_t j = 0; j < 4; ++j) {
        x[i * 4 + j] = (j == cls ? 2.0 : 0.0) + 0.3 * rng->normal();
      }
    }
    auto loss = ag::softmax_cross_entropy(model->forward(ag::Variable(x)), y);
    loss.backward();
    return loss.value().item();
  };
  return worker;
}

}  // namespace

TEST(ShardedParamServer, RealModuleWorkersTrainConcurrently) {
  auto master = make_linear_worker(0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(master.params, 0.1, 0.9);
  async::ParamServerOptions sopts;
  sopts.shards = 3;
  async::ShardedParamServer server(opt, sopts);

  std::vector<async::ServerWorker> workers;
  for (std::uint64_t w = 1; w <= 4; ++w) workers.push_back(make_linear_worker(w));
  async::ServerRunOptions ropts;
  ropts.steps_per_worker = 60;
  const auto run = async::run_workers(server, workers, ropts);

  ASSERT_EQ(run.total_updates, 240);
  ASSERT_EQ(run.stats.size(), 240u);
  ASSERT_EQ(run.losses.size(), 240u);
  // Every application got a unique, dense update index.
  for (std::size_t i = 0; i < run.stats.size(); ++i) {
    EXPECT_EQ(run.stats[i].update_index, static_cast<std::int64_t>(i) + 1);
  }
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(server.shard_version(k), 240);
  // Training made progress: the tail of the loss curve is below the head.
  const auto mean = [](auto first, auto last) {
    return std::accumulate(first, last, 0.0) / static_cast<double>(last - first);
  };
  const double head = mean(run.losses.begin(), run.losses.begin() + 40);
  const double tail = mean(run.losses.end() - 40, run.losses.end());
  EXPECT_LT(tail, head);
  for (double v : server.optimizer().arena().values()) EXPECT_TRUE(std::isfinite(v));
}

TEST(ShardedParamServer, RejectsWorkerAliasedToMaster) {
  auto master = make_linear_worker(0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(master.params, 0.1, 0.9);
  async::ShardedParamServer server(opt, {});
  // Handing the master's own (already arena-flattened) parameters to a
  // worker would bypass every shard lock; run_workers must refuse.
  std::vector<async::ServerWorker> workers = {
      {master.params, [] { return 0.0; }},
  };
  async::ServerRunOptions ropts;
  ropts.steps_per_worker = 1;
  EXPECT_THROW(async::run_workers(server, workers, ropts), std::invalid_argument);
}

TEST(ShardedParamServer, RunWorkersRejectsNegativeStepCount) {
  auto master = make_linear_worker(0);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(master.params, 0.1, 0.9);
  async::ShardedParamServer server(opt, {});
  std::vector<async::ServerWorker> workers = {make_linear_worker(1)};
  async::ServerRunOptions ropts;
  ropts.steps_per_worker = -1;
  try {
    (void)async::run_workers(server, workers, ropts);
    FAIL() << "a negative step count must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("steps_per_worker"), std::string::npos) << e.what();
  }
  EXPECT_EQ(server.updates(), 0);
}

// ---------------------------------------------------------------------------
// Closed loop under emergent staleness (the Fig. 4 right pane on real
// threads): measured total momentum must stay near the target while the
// open loop overshoots it.
// ---------------------------------------------------------------------------

namespace {

/// Quadratic-bowl worker over a flat parameter vector with gradient noise.
async::ServerWorker make_bowl_worker(std::int64_t dim, double h, double noise,
                                     std::uint64_t seed) {
  ag::Variable x(t::Tensor::full({dim}, 1.5), true);
  auto rng = std::make_shared<t::Rng>(seed);
  async::ServerWorker worker;
  worker.params = {x};
  worker.grad_fn = [x, rng, h, noise] {
    auto g = x.node()->ensure_grad().data();
    const auto v = x.value().data();
    double loss = 0.0;
    for (std::size_t j = 0; j < g.size(); ++j) {
      loss += 0.5 * h * v[j] * v[j];
      g[j] = h * v[j] + noise * rng->normal();
    }
    return loss;
  };
  return worker;
}

struct LoopRun {
  double tail_gap = 0.0;      ///< mean (mu_hat - target) over the tail
  double applied_tail = 0.0;  ///< mean applied algorithmic momentum, tail
};

LoopRun run_loop(bool closed) {
  const std::int64_t dim = 48;
  const double mu_target = 0.5;
  ag::Variable master_x(t::Tensor::full({dim}, 1.5), true);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(std::vector<ag::Variable>{master_x},
                                                      0.05, mu_target);
  async::ParamServerOptions sopts;
  sopts.shards = 4;
  sopts.closed_loop = closed;
  sopts.mu_target = mu_target;
  sopts.gamma = 0.05;
  async::ShardedParamServer server(opt, sopts);

  std::vector<async::ServerWorker> workers;
  for (std::uint64_t w = 0; w < 8; ++w) workers.push_back(make_bowl_worker(dim, 1.0, 0.05, 40 + w));
  async::ServerRunOptions ropts;
  ropts.steps_per_worker = 150;
  ropts.compute_delay_us = 500;  // force read-compute-write overlap
  const auto run = async::run_workers(server, workers, ropts);

  LoopRun out;
  double gap_sum = 0.0, applied_sum = 0.0;
  std::int64_t n = 0;
  const std::size_t start = run.stats.size() / 2;
  for (std::size_t i = start; i < run.stats.size(); ++i) {
    if (!run.stats[i].mu_hat_total) continue;
    gap_sum += *run.stats[i].mu_hat_total - run.stats[i].target_momentum;
    applied_sum += run.stats[i].applied_momentum;
    ++n;
  }
  EXPECT_GT(n, 100);
  out.tail_gap = gap_sum / static_cast<double>(std::max<std::int64_t>(n, 1));
  out.applied_tail = applied_sum / static_cast<double>(std::max<std::int64_t>(n, 1));
  return out;
}

}  // namespace

TEST(ShardedParamServer, ClosedLoopKeepsTotalMomentumOnTarget) {
  const LoopRun open = run_loop(false);
  const LoopRun closed = run_loop(true);
  // Asynchrony-induced momentum is visible in the open loop...
  EXPECT_GT(open.tail_gap, 0.04);
  // ...and the feedback loop cancels most of it: measured total momentum
  // stays within tolerance of the target.
  EXPECT_LT(std::abs(closed.tail_gap), std::abs(open.tail_gap));
  EXPECT_LT(std::abs(closed.tail_gap), 0.05);
  // Cancelling requires pulling applied momentum below the target.
  EXPECT_LT(closed.applied_tail, open.applied_tail - 0.02);
}
