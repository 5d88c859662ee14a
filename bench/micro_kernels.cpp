// Microbenchmarks (google-benchmark): fused arena kernels vs the
// historical per-tensor hot paths they replaced, and the scalar vs SIMD
// kernel backends against each other.
//
// The "Old*" benchmarks replicate the seed implementations faithfully:
// per-parameter tensor walks (three in-place passes for momentum, an
// operator[] element loop for Adam) and the tuner's flatten-copy +
// square() temporary + two-sweep EWMA measurement. The "Fused*"
// benchmarks run the production path — one core::kernels sweep over the
// ParamArena — once per kernel backend (the /scalar and /simd capture
// suffix; simd runs skip on machines without AVX2). Args are
// {num_params, param_size}: many small parameters stress per-tensor
// dispatch overhead, one big parameter isolates the pure sweep cost.
// Results land in BENCH_micro_kernels.json via yfb::JsonReporter.
#include <benchmark/benchmark.h>

#include <cmath>
#include <span>
#include <vector>

#include "common.hpp"
#include "core/arena.hpp"
#include "core/kernels.hpp"
#include "optim/adam.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tuner/distance_to_opt.hpp"
#include "tuner/ewma.hpp"
#include "tuner/gradient_variance.hpp"
#include "tuner/yellowfin.hpp"

namespace {

namespace ag = yf::autograd;
namespace core = yf::core;
namespace t = yf::tensor;

std::vector<ag::Variable> make_params(std::int64_t count, std::int64_t size) {
  t::Rng rng(1);
  std::vector<ag::Variable> params;
  params.reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    params.emplace_back(rng.normal_tensor({size}), true);
    auto g = params.back().node()->ensure_grad().data();
    for (auto& x : g) x = rng.normal();
  }
  return params;
}

void set_items(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() * state.range(0) * state.range(1));
}

// -- Momentum step: old three-pass per-tensor walk vs one fused sweep. -------

void BM_OldPerTensorMomentum(benchmark::State& state) {
  auto params = make_params(state.range(0), state.range(1));
  std::vector<t::Tensor> velocity;
  for (const auto& p : params) velocity.push_back(t::Tensor::zeros(p.value().shape()));
  const double lr = 1e-6, mu = 0.9;
  for (auto _ : state) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      auto& v = velocity[i];
      const auto& g = params[i].grad();
      v.mul_(mu);
      v.add_(g, -lr);
      params[i].value().add_(v);
    }
  }
  set_items(state);
}
BENCHMARK(BM_OldPerTensorMomentum)->Args({256, 64})->Args({1, 100000});

void BM_FusedArenaMomentum(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  auto params = make_params(state.range(0), state.range(1));
  yf::optim::MomentumSGD opt(params, 1e-6, 0.9);
  for (auto _ : state) opt.step();
  set_items(state);
}
BENCHMARK_CAPTURE(BM_FusedArenaMomentum, scalar, core::KernelBackend::kScalar)
    ->Args({256, 64})
    ->Args({1, 100000});
BENCHMARK_CAPTURE(BM_FusedArenaMomentum, simd, core::KernelBackend::kSimd)
    ->Args({256, 64})
    ->Args({1, 100000});

// -- Adam step: old operator[] element loop vs one fused sweep. --------------

void BM_OldPerTensorAdam(benchmark::State& state) {
  auto params = make_params(state.range(0), state.range(1));
  std::vector<t::Tensor> ms, vs;
  for (const auto& p : params) {
    ms.push_back(t::Tensor::zeros(p.value().shape()));
    vs.push_back(t::Tensor::zeros(p.value().shape()));
  }
  const double lr = 1e-6, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  std::int64_t iter = 0;
  for (auto _ : state) {
    const auto tstep = static_cast<double>(++iter);
    const double bc1 = 1.0 - std::pow(b1, tstep);
    const double bc2 = 1.0 - std::pow(b2, tstep);
    for (std::size_t i = 0; i < params.size(); ++i) {
      auto& m = ms[i];
      auto& v = vs[i];
      const auto& g = params[i].grad();
      auto& x = params[i].value();
      for (std::int64_t j = 0; j < g.size(); ++j) {
        m[j] = b1 * m[j] + (1.0 - b1) * g[j];
        v[j] = b2 * v[j] + (1.0 - b2) * g[j] * g[j];
        x[j] -= lr * (m[j] / bc1) / (std::sqrt(v[j] / bc2) + eps);
      }
    }
  }
  set_items(state);
}
BENCHMARK(BM_OldPerTensorAdam)->Args({256, 64})->Args({1, 100000});

void BM_FusedArenaAdam(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  auto params = make_params(state.range(0), state.range(1));
  yf::optim::Adam opt(params, 1e-6);
  for (auto _ : state) opt.step();
  set_items(state);
}
BENCHMARK_CAPTURE(BM_FusedArenaAdam, scalar, core::KernelBackend::kScalar)
    ->Args({256, 64})
    ->Args({1, 100000});
BENCHMARK_CAPTURE(BM_FusedArenaAdam, simd, core::KernelBackend::kSimd)
    ->Args({256, 64})
    ->Args({1, 100000});

// -- Tuner measurement: old flatten + temporaries vs fused arena pass. -------

void BM_OldTunerMeasure(benchmark::State& state) {
  auto params = make_params(state.range(0), state.range(1));
  yf::tuner::TensorEwma g_avg(0.999), g2_avg(0.999);
  yf::tuner::DistanceToOpt distance(0.999);
  for (auto _ : state) {
    // Seed path: flatten-copy every gradient, then separate sweeps.
    std::int64_t total = 0;
    for (const auto& p : params) total += p.value().size();
    t::Tensor flat(t::Shape{total});
    std::int64_t off = 0;
    for (const auto& p : params) {
      const auto& g = p.grad();
      for (std::int64_t i = 0; i < g.size(); ++i) flat[off + i] = g[i];
      off += g.size();
    }
    double sq = 0.0;
    for (double g : flat.data()) sq += g * g;
    g_avg.update(flat);
    g2_avg.update(t::square(flat));  // square() temporary
    // Variance readout with debias clones, as the seed's value() did.
    const auto mean = g_avg.value();
    const auto mean_sq = g2_avg.value();
    double c = 0.0;
    auto m = mean.data();
    auto m2 = mean_sq.data();
    for (std::size_t i = 0; i < m.size(); ++i) c += m2[i] - m[i] * m[i];
    distance.update(std::sqrt(sq));
    benchmark::DoNotOptimize(c);
  }
  set_items(state);
}
BENCHMARK(BM_OldTunerMeasure)->Args({256, 64})->Args({1, 100000});

void BM_FusedTunerMeasure(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  auto params = make_params(state.range(0), state.range(1));
  yf::core::ParamArena arena(params);
  yf::tuner::GradientVariance variance(0.999);
  yf::tuner::DistanceToOpt distance(0.999);
  for (auto _ : state) {
    const auto grads = std::span<const double>(arena.grads());
    const double sq = yf::core::squared_norm(grads);
    variance.update(grads);  // one fused two-moment sweep, no copies
    const double c = variance.variance();
    distance.update(std::sqrt(sq));
    benchmark::DoNotOptimize(c);
  }
  set_items(state);
}
BENCHMARK_CAPTURE(BM_FusedTunerMeasure, scalar, core::KernelBackend::kScalar)
    ->Args({256, 64})
    ->Args({1, 100000});
BENCHMARK_CAPTURE(BM_FusedTunerMeasure, simd, core::KernelBackend::kSimd)
    ->Args({256, 64})
    ->Args({1, 100000});

// -- Full YellowFin step on the arena (compare against the seed numbers
//    recorded by micro_tuner_overhead). ---------------------------------------

void BM_FusedYellowFinStep(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  auto params = make_params(state.range(0), state.range(1));
  yf::tuner::YellowFinOptions opts;
  opts.lr0 = 1e-8;
  yf::tuner::YellowFin opt(params, opts);
  for (auto _ : state) opt.step();
  set_items(state);
}
BENCHMARK_CAPTURE(BM_FusedYellowFinStep, scalar, core::KernelBackend::kScalar)
    ->Args({256, 64})
    ->Args({1, 100000});
BENCHMARK_CAPTURE(BM_FusedYellowFinStep, simd, core::KernelBackend::kSimd)
    ->Args({256, 64})
    ->Args({1, 100000});

// -- Transcendentals: old libm map lambdas vs the kernel-table entries. ------
// Arg is n: 96 is one LSTM gate tensor ([6,16]), 100000 a long sweep.
// Inputs are N(0, 3^2), the scale of gate pre-activations. The
// BM_LibmUnary* replicas run the libm lambdas that tensor's exp, sigmoid
// and tanh ops passed to core::map before the table entries existed.

std::vector<double> unary_inputs(std::int64_t n) {
  t::Rng rng(11);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = 3.0 * rng.normal();
  return x;
}

template <typename F>
void run_unary(benchmark::State& state, F f) {
  const auto x = unary_inputs(state.range(0));
  std::vector<double> y(x.size());
  for (auto _ : state) {
    f(y, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_LibmUnaryExp(benchmark::State& state) {
  run_unary(state, [](std::span<double> y, std::span<const double> x) {
    core::map(y, x, [](double v) { return std::exp(v); });
  });
}
void BM_LibmUnarySigmoid(benchmark::State& state) {
  run_unary(state, [](std::span<double> y, std::span<const double> x) {
    core::map(y, x, [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  });
}
void BM_LibmUnaryTanh(benchmark::State& state) {
  run_unary(state, [](std::span<double> y, std::span<const double> x) {
    core::map(y, x, [](double v) { return std::tanh(v); });
  });
}
BENCHMARK(BM_LibmUnaryExp)->Arg(96)->Arg(100000);
BENCHMARK(BM_LibmUnarySigmoid)->Arg(96)->Arg(100000);
BENCHMARK(BM_LibmUnaryTanh)->Arg(96)->Arg(100000);

void BM_UnaryExp(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (scope) run_unary(state, core::exp);
}
void BM_UnarySigmoid(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (scope) run_unary(state, core::sigmoid);
}
void BM_UnaryTanh(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (scope) run_unary(state, core::tanh);
}
BENCHMARK_CAPTURE(BM_UnaryExp, scalar, core::KernelBackend::kScalar)->Arg(96)->Arg(100000);
BENCHMARK_CAPTURE(BM_UnaryExp, simd, core::KernelBackend::kSimd)->Arg(96)->Arg(100000);
BENCHMARK_CAPTURE(BM_UnarySigmoid, scalar, core::KernelBackend::kScalar)->Arg(96)->Arg(100000);
BENCHMARK_CAPTURE(BM_UnarySigmoid, simd, core::KernelBackend::kSimd)->Arg(96)->Arg(100000);
BENCHMARK_CAPTURE(BM_UnaryTanh, scalar, core::KernelBackend::kScalar)->Arg(96)->Arg(100000);
BENCHMARK_CAPTURE(BM_UnaryTanh, simd, core::KernelBackend::kSimd)->Arg(96)->Arg(100000);

// Each runnable kernel table (runs skip where the CPU cannot run it) at
// the sizes the LSTM runs: 16 and 32 are one batch row's gate segments,
// 96 a [6,16] state, 2376 the [72,33] softmax of train_lm's logits.
void BM_TableExp(benchmark::State& state, const char* table) {
  yfb::TableScope scope(state, table);
  if (scope) run_unary(state, core::exp);
}
void BM_TableSigmoid(benchmark::State& state, const char* table) {
  yfb::TableScope scope(state, table);
  if (scope) run_unary(state, core::sigmoid);
}
void BM_TableTanh(benchmark::State& state, const char* table) {
  yfb::TableScope scope(state, table);
  if (scope) run_unary(state, core::tanh);
}
void table_unary_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {16, 32, 96, 2376}) b->Arg(n);
}
#define YF_TABLE_UNARY_BENCH(fn)                                    \
  BENCHMARK_CAPTURE(fn, scalar, "scalar")->Apply(table_unary_args); \
  BENCHMARK_CAPTURE(fn, avx2, "avx2")->Apply(table_unary_args);     \
  BENCHMARK_CAPTURE(fn, avx512, "avx512")->Apply(table_unary_args)
YF_TABLE_UNARY_BENCH(BM_TableExp);
YF_TABLE_UNARY_BENCH(BM_TableSigmoid);
YF_TABLE_UNARY_BENCH(BM_TableTanh);

// -- Blocked matmul through the kernel backends. -----------------------------

void BM_Matmul(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  const auto m = state.range(0), k = state.range(1), n = state.range(2);
  t::Rng rng(9);
  const auto a = rng.normal_tensor({m, k});
  const auto b = rng.normal_tensor({k, n});
  for (auto _ : state) {
    auto c = t::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK_CAPTURE(BM_Matmul, scalar, core::KernelBackend::kScalar)
    ->Args({64, 64, 64})
    ->Args({8, 512, 512});
BENCHMARK_CAPTURE(BM_Matmul, simd, core::KernelBackend::kSimd)
    ->Args({64, 64, 64})
    ->Args({8, 512, 512});

}  // namespace

int main(int argc, char** argv) {
  return yfb::benchmark_main_with_json(argc, argv, "micro_kernels");
}
