#include "core/arena.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/kernels/backend.hpp"

#include "optim/adagrad.hpp"
#include "optim/adam.hpp"
#include "optim/momentum_sgd.hpp"
#include "optim/sgd.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace core = yf::core;
namespace t = yf::tensor;

namespace {

std::vector<ag::Variable> make_params(const std::vector<t::Shape>& shapes, std::uint64_t seed) {
  t::Rng rng(seed);
  std::vector<ag::Variable> params;
  for (const auto& s : shapes) params.emplace_back(rng.normal_tensor(s), true);
  return params;
}

}  // namespace

TEST(ParamArena, ViewsAliasParameterStorage) {
  auto params = make_params({{2, 3}, {4}, {1, 5}}, 1);
  core::ParamArena arena(params);
  ASSERT_EQ(arena.size(), 6 + 4 + 5);
  ASSERT_EQ(arena.count(), 3u);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(params[i].value().shares_storage_with(arena.values_tensor())) << i;
    EXPECT_TRUE(params[i].grad().shares_storage_with(arena.grads_tensor())) << i;
  }
  // Writes through the arena are visible through the parameter, and
  // vice versa.
  arena.values()[0] = 42.0;
  EXPECT_EQ(params[0].value()[0], 42.0);
  params[1].value()[2] = -7.0;
  EXPECT_EQ(arena.values()[static_cast<std::size_t>(arena.offset(1)) + 2], -7.0);
}

TEST(ParamArena, FlatteningPreservesShapesAndValues) {
  auto params = make_params({{3, 2}, {7}}, 2);
  std::vector<t::Tensor> before;
  for (const auto& p : params) before.push_back(p.value().clone());
  core::ParamArena arena(params);
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(params[i].value().shape(), before[i].shape());
    EXPECT_EQ(arena.shape(i), before[i].shape());
    const auto now = params[i].value().data();
    const auto then = before[i].data();
    for (std::size_t j = 0; j < now.size(); ++j) EXPECT_EQ(now[j], then[j]) << i << "," << j;
  }
  // Slots are laid out contiguously in registration order.
  EXPECT_EQ(arena.offset(0), 0);
  EXPECT_EQ(arena.offset(1), 6);
}

TEST(ParamArena, PreservesPreexistingGradients) {
  auto params = make_params({{4}}, 3);
  params[0].node()->ensure_grad()[1] = 3.25;
  core::ParamArena arena(params);
  EXPECT_EQ(params[0].grad()[1], 3.25);
  EXPECT_EQ(arena.grads()[1], 3.25);
}

TEST(ParamArena, DeduplicatesTiedParameters) {
  auto params = make_params({{3}, {2}}, 4);
  std::vector<ag::Variable> with_dup = {params[0], params[1], params[0]};  // tied
  core::ParamArena arena(with_dup);
  EXPECT_EQ(arena.count(), 2u);
  EXPECT_EQ(arena.size(), 5);
}

TEST(ParamArena, BuffersOutliveArena) {
  auto params = make_params({{3}}, 5);
  {
    core::ParamArena arena(params);
    arena.values()[0] = 1.5;
  }
  // Arena destroyed: the parameter still owns (a view of) the storage.
  EXPECT_EQ(params[0].value()[0], 1.5);
  params[0].value()[1] = 2.5;
  EXPECT_EQ(params[0].value()[1], 2.5);
}

TEST(ParamArena, MakeBufferAndViewAlign) {
  auto params = make_params({{2, 2}, {3}}, 6);
  core::ParamArena arena(params);
  auto buf = arena.make_buffer();
  ASSERT_EQ(buf.size(), 7);
  auto view1 = arena.view(buf, 1);
  EXPECT_EQ(view1.shape(), (t::Shape{3}));
  EXPECT_TRUE(view1.shares_storage_with(buf));
  view1[0] = 9.0;
  EXPECT_EQ(buf[4], 9.0);
}

TEST(ParamArena, SecondArenaAdoptsFirstArenasBuffers) {
  auto params = make_params({{3, 2}, {4}}, 7);
  core::ParamArena first(params);
  core::ParamArena second(params);
  // Adoption, not re-flattening: both arenas alias the same storage, so
  // an optimizer holding either stays live.
  EXPECT_TRUE(second.values_tensor().shares_storage_with(first.values_tensor()));
  EXPECT_TRUE(second.grads_tensor().shares_storage_with(first.grads_tensor()));
  second.values()[0] = 3.5;
  EXPECT_EQ(first.values()[0], 3.5);
}

TEST(ParamArena, TwoOptimizersOverSameParamsBothWork) {
  // Seed drop-in-replacement semantics: several optimizers over one
  // model must all update the visible parameters.
  auto params = make_params({{4}}, 8);
  yf::optim::SGD a(params, 0.5);
  yf::optim::SGD b(params, 0.5);
  const double x0 = params[0].value()[0];
  params[0].node()->ensure_grad().fill(1.0);
  a.step();
  EXPECT_NEAR(params[0].value()[0], x0 - 0.5, 1e-15) << "first optimizer must stay attached";
  b.step();
  EXPECT_NEAR(params[0].value()[0], x0 - 1.0, 1e-15);
}

TEST(ParamArena, DifferentOrderRearenasWithoutDataLoss) {
  auto params = make_params({{2}, {3}}, 9);
  core::ParamArena first(params);
  first.values()[0] = 11.0;
  std::vector<ag::Variable> reversed = {params[1], params[0]};
  core::ParamArena second(reversed);  // order differs: fresh flatten
  EXPECT_FALSE(second.values_tensor().shares_storage_with(first.values_tensor()));
  EXPECT_EQ(params[0].value()[0], 11.0) << "values migrate into the new arena";
}

TEST(ParamArena, RejectsEmptyAndUndefined) {
  EXPECT_THROW(core::ParamArena({}), std::invalid_argument);
  std::vector<ag::Variable> bad(1);  // default-constructed: undefined
  EXPECT_THROW(core::ParamArena arena(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trajectory identity: each fused-arena optimizer must follow the naive
// per-parameter reference within 1e-12 on a noisy quadratic, and must be
// invariant to how the parameter vector is partitioned into tensors.
// ---------------------------------------------------------------------------

namespace {

/// Noisy-quadratic gradient: g = h .* x + noise, deterministic per seed.
void quad_grads(std::vector<ag::Variable>& params, double h, t::Rng& rng) {
  for (auto& p : params) {
    const auto x = p.value().data();
    auto g = p.node()->ensure_grad().data();
    for (std::size_t j = 0; j < g.size(); ++j) g[j] = h * x[j] + 0.01 * rng.normal();
  }
}

/// Flatten current values of `params` for comparison.
std::vector<double> flat_values(const std::vector<ag::Variable>& params) {
  std::vector<double> out;
  for (const auto& p : params) {
    const auto v = p.value().data();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

/// Run `steps` noisy-quadratic iterations of `opt` over `params` and
/// return the final flat iterate. Gradient noise is deterministic.
template <typename MakeOpt>
std::vector<double> run_trajectory(const std::vector<t::Shape>& shapes, MakeOpt make_opt,
                                   int steps) {
  auto params = make_params(shapes, 77);
  auto opt = make_opt(params);
  t::Rng noise(123);
  for (int s = 0; s < steps; ++s) {
    opt->zero_grad();
    quad_grads(params, 1.3, noise);
    opt->step();
  }
  return flat_values(params);
}

void expect_close(const std::vector<double>& a, const std::vector<double>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], tol) << i;
}

const std::vector<t::Shape> kSplit = {{5, 3}, {8}, {2, 6}, {1}};   // 36 scalars
const std::vector<t::Shape> kWhole = {{36}};                       // same vector, one tensor

}  // namespace

TEST(ArenaTrajectory, SgdMatchesNaiveReference) {
  auto fused = run_trajectory(
      kSplit, [](auto& p) { return std::make_unique<yf::optim::SGD>(p, 0.05); }, 200);
  // Naive reference: plain per-element loop on a copy of the same problem.
  auto params = make_params(kSplit, 77);
  t::Rng noise(123);
  for (int s = 0; s < 200; ++s) {
    quad_grads(params, 1.3, noise);
    for (auto& p : params) {
      auto x = p.value().data();
      const auto g = p.grad().data();
      for (std::size_t j = 0; j < x.size(); ++j) x[j] += -0.05 * g[j];
    }
  }
  expect_close(fused, flat_values(params), 1e-12);
}

TEST(ArenaTrajectory, MomentumMatchesNaiveReference) {
  for (bool nesterov : {false, true}) {
    auto fused = run_trajectory(
        kSplit,
        [&](auto& p) { return std::make_unique<yf::optim::MomentumSGD>(p, 0.02, 0.9, nesterov); },
        200);
    auto params = make_params(kSplit, 77);
    std::vector<std::vector<double>> vel;
    for (auto& p : params) vel.emplace_back(static_cast<std::size_t>(p.value().size()), 0.0);
    t::Rng noise(123);
    for (int s = 0; s < 200; ++s) {
      quad_grads(params, 1.3, noise);
      for (std::size_t i = 0; i < params.size(); ++i) {
        auto x = params[i].value().data();
        const auto g = params[i].grad().data();
        auto& v = vel[i];
        for (std::size_t j = 0; j < x.size(); ++j) {
          v[j] = 0.9 * v[j] - 0.02 * g[j];
          if (nesterov) {
            x[j] += 0.9 * v[j] - 0.02 * g[j];
          } else {
            x[j] += v[j];
          }
        }
      }
    }
    expect_close(fused, flat_values(params), 1e-12);
  }
}

TEST(ArenaTrajectory, AdamMatchesNaiveReference) {
  auto fused = run_trajectory(
      kSplit, [](auto& p) { return std::make_unique<yf::optim::Adam>(p, 0.01); }, 200);
  auto params = make_params(kSplit, 77);
  std::vector<std::vector<double>> m, v;
  for (auto& p : params) {
    m.emplace_back(static_cast<std::size_t>(p.value().size()), 0.0);
    v.emplace_back(static_cast<std::size_t>(p.value().size()), 0.0);
  }
  t::Rng noise(123);
  const double lr = 0.01, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  for (int s = 0; s < 200; ++s) {
    quad_grads(params, 1.3, noise);
    const double bc1 = 1.0 - std::pow(b1, s + 1.0), bc2 = 1.0 - std::pow(b2, s + 1.0);
    for (std::size_t i = 0; i < params.size(); ++i) {
      auto x = params[i].value().data();
      const auto g = params[i].grad().data();
      for (std::size_t j = 0; j < x.size(); ++j) {
        m[i][j] = b1 * m[i][j] + (1 - b1) * g[j];
        v[i][j] = b2 * v[i][j] + (1 - b2) * g[j] * g[j];
        x[j] -= lr * (m[i][j] / bc1) / (std::sqrt(v[i][j] / bc2) + eps);
      }
    }
  }
  expect_close(fused, flat_values(params), 1e-12);
}

TEST(ArenaTrajectory, ScalarVsSimdBackendBitIdentical) {
  // The SIMD backend must not move a single trajectory bit: elementwise
  // kernels keep per-element arithmetic, and reductions follow the same
  // canonical lane-blocked order on both backends (kernel_table.hpp), so
  // even the YellowFin tuner (whose lr/mu come from measured reductions)
  // is pinned with EXPECT_EQ, not a tolerance.
  if (!core::simd_supported()) GTEST_SKIP() << "no AVX2 on this machine";
  using OptFactory =
      std::function<std::unique_ptr<yf::optim::Optimizer>(std::vector<ag::Variable>&)>;
  const std::vector<std::pair<const char*, OptFactory>> factories = {
      {"sgd", [](auto& p) { return std::make_unique<yf::optim::SGD>(p, 0.05); }},
      {"momentum", [](auto& p) { return std::make_unique<yf::optim::MomentumSGD>(p, 0.02, 0.9); }},
      {"adam", [](auto& p) { return std::make_unique<yf::optim::Adam>(p, 0.01); }},
      {"adagrad", [](auto& p) { return std::make_unique<yf::optim::AdaGrad>(p, 0.05); }},
      {"yellowfin", [](auto& p) {
         yf::tuner::YellowFinOptions opts;
         opts.beta = 0.99;
         return std::make_unique<yf::tuner::YellowFin>(p, opts);
       }}};
  const auto previous = core::active_kernel_backend();
  for (const auto& [name, make_opt] : factories) {
    core::set_kernel_backend(core::KernelBackend::kScalar);
    const auto scalar_traj = run_trajectory(kSplit, make_opt, 150);
    core::set_kernel_backend(core::KernelBackend::kSimd);
    const auto simd_traj = run_trajectory(kSplit, make_opt, 150);
    ASSERT_EQ(scalar_traj.size(), simd_traj.size()) << name;
    for (std::size_t i = 0; i < scalar_traj.size(); ++i) {
      EXPECT_EQ(scalar_traj[i], simd_traj[i]) << name << " @" << i;
    }
  }
  core::set_kernel_backend(previous);
}

TEST(ArenaTrajectory, PartitionInvariance) {
  // Flattening erases tensor boundaries: splitting the same 36-vector
  // into 4 tensors or keeping it whole must give identical trajectories
  // for every optimizer, including the YellowFin tuner.
  using OptFactory =
      std::function<std::unique_ptr<yf::optim::Optimizer>(std::vector<ag::Variable>&)>;
  const std::vector<std::pair<const char*, OptFactory>> factories = {
      {"sgd", [](auto& p) { return std::make_unique<yf::optim::SGD>(p, 0.05); }},
      {"momentum", [](auto& p) { return std::make_unique<yf::optim::MomentumSGD>(p, 0.02, 0.9); }},
      {"adam", [](auto& p) { return std::make_unique<yf::optim::Adam>(p, 0.01); }},
      {"adagrad", [](auto& p) { return std::make_unique<yf::optim::AdaGrad>(p, 0.05); }},
      {"yellowfin", [](auto& p) {
         yf::tuner::YellowFinOptions opts;
         opts.beta = 0.99;
         return std::make_unique<yf::tuner::YellowFin>(p, opts);
       }}};
  for (const auto& [name, make_opt] : factories) {
    auto split = run_trajectory(kSplit, make_opt, 150);
    auto whole = run_trajectory(kWhole, make_opt, 150);
    ASSERT_EQ(split.size(), whole.size()) << name;
    for (std::size_t i = 0; i < split.size(); ++i) {
      EXPECT_NEAR(split[i], whole[i], 1e-12) << name << " @" << i;
    }
  }
}
