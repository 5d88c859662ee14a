// GEMM microbenchmarks (google-benchmark): the packed register-tiled
// subsystem (core/gemm.hpp) on LM-shaped products -- tied-embedding
// decode (NT), LSTM 4-gate pre-activations (NN), conv im2col forward
// (NT) and its dW pullback (TN) -- plus square compute-bound shapes,
// each across the scalar and AVX2 kernel backends, and the pullbacks'
// gradient add (product + axpy against the accumulate form). Args are
// {m, n, k} with C = m x n.
//
// BM_GemmPackedForced / BM_GemmSmallForced run the *forced* packed and
// small engines on cubes around the dispatch thresholds; their output
// pins core::detail::kGemmSmallWork / kGemmSmallRows (gemm.hpp).
// BM_TableGemm* time each runnable kernel table's small-path entries at
// the products the gated workloads run (DESIGN.md §4).
// Results land in BENCH_micro_gemm.json via yfb::JsonReporter.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"
#include "core/gemm.hpp"
#include "core/kernels/backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace {

namespace core = yf::core;
namespace t = yf::tensor;

struct Operands {
  t::Tensor a, b, c;
};

Operands make_operands(core::GemmVariant v, std::int64_t m, std::int64_t n, std::int64_t k) {
  t::Rng rng(29);
  Operands ops;
  ops.a = v == core::GemmVariant::kTN ? rng.normal_tensor({k, m}) : rng.normal_tensor({m, k});
  ops.b = v == core::GemmVariant::kNT ? rng.normal_tensor({n, k}) : rng.normal_tensor({k, n});
  ops.c = t::Tensor(t::Shape{m, n});
  return ops;
}

void run_gemm(benchmark::State& state, core::GemmVariant v, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  const auto m = state.range(0), n = state.range(1), k = state.range(2);
  auto ops = make_operands(v, m, n, k);
  for (auto _ : state) {
    core::gemm(v, ops.c.data().data(), ops.a.data().data(), ops.b.data().data(), m, n, k);
    benchmark::DoNotOptimize(ops.c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}

void BM_GemmNn(benchmark::State& state, core::KernelBackend backend) {
  run_gemm(state, core::GemmVariant::kNN, backend);
}
void BM_GemmNt(benchmark::State& state, core::KernelBackend backend) {
  run_gemm(state, core::GemmVariant::kNT, backend);
}
void BM_GemmTn(benchmark::State& state, core::KernelBackend backend) {
  run_gemm(state, core::GemmVariant::kTN, backend);
}

// LM shapes (micro_train_step's 8x17 config): LSTM 4-gate pre-activation
// x[B,E] @ Wx[E,4H], BPTT-batched logits decode [B*T,H] @ E[V,H]^T, and
// the matmul pullback's TN product; conv shapes from a MiniResNet-ish
// im2col ([N*OH*OW, C*KH*KW] @ W[F,CKK]^T forward, TN for dW); square
// shapes for headline packed throughput.
#define YF_GEMM_BENCH(fn)                                                         \
  BENCHMARK_CAPTURE(fn, scalar, core::KernelBackend::kScalar)->Apply(fn##_args);  \
  BENCHMARK_CAPTURE(fn, simd, core::KernelBackend::kSimd)->Apply(fn##_args)

void BM_GemmNn_args(benchmark::internal::Benchmark* b) {
  b->Args({8, 96, 24})      // LSTM 4-gate: x[8,24] @ Wx[24,96]
      ->Args({136, 96, 24})  // BPTT-batched gates (B*T rows)
      ->Args({8, 512, 512})  // skinny headline shape (matmul baseline)
      ->Args({6, 64, 16})    // train_lm (TS-sub LSTM) gates: h[6,16] @ Wh[16,64]
      ->Args({6, 33, 16})    // train_lm decoder logits h[6,16] @ Wd[16,33]
      ->Args({256, 256, 256});
}
void BM_GemmNt_args(benchmark::internal::Benchmark* b) {
  b->Args({136, 32, 24})    // tied decode [B*T,H] @ E[V,H]^T
      ->Args({512, 8, 36})   // conv im2col forward: col @ W^T
      ->Args({6, 16, 64})    // train_lm gate pullback dH = dGates[6,64] @ Wh^T
      ->Args({6, 16, 33})    // train_lm decoder pullback dH = dLogits[6,33] @ Wd^T
      ->Args({256, 256, 256});
}
void BM_GemmTn_args(benchmark::internal::Benchmark* b) {
  b->Args({24, 96, 136})    // dWx = x^T @ dGates
      ->Args({8, 36, 512})   // conv dW = dOut^T @ col
      ->Args({16, 64, 6})    // train_lm dWh = h^T @ dGates
      ->Args({256, 256, 256});
}

YF_GEMM_BENCH(BM_GemmNn);
YF_GEMM_BENCH(BM_GemmNt);
YF_GEMM_BENCH(BM_GemmTn);

// -- Gradient accumulation: grad += op(A) @ op(B). ---------------------------
// The matmul and LSTM pullbacks once formed each product in scratch and
// added it with an axpy (Tensor::add_); they now call GEMM's accumulate
// form, whose one k-panel adds straight into the gradient. Arg: train_lm's
// LSTM weight gradient dW_h += h^T @ dGates (TN 16x64x6).

void run_grad_add(benchmark::State& state, core::KernelBackend backend, bool accumulate) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  const auto m = state.range(0), n = state.range(1), k = state.range(2);
  auto ops = make_operands(core::GemmVariant::kTN, m, n, k);
  t::Tensor grad(t::Shape{m, n});
  for (auto _ : state) {
    if (accumulate) {
      core::gemm(core::GemmVariant::kTN, grad.data().data(), ops.a.data().data(),
                 ops.b.data().data(), m, n, k, /*accumulate=*/true);
    } else {
      core::gemm(core::GemmVariant::kTN, ops.c.data().data(), ops.a.data().data(),
                 ops.b.data().data(), m, n, k);
      grad.add_(ops.c);
    }
    benchmark::DoNotOptimize(grad.data().data());
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}

void BM_GemmTnProductAxpy(benchmark::State& state, core::KernelBackend backend) {
  run_grad_add(state, backend, false);
}
void BM_GemmTnAccumulate(benchmark::State& state, core::KernelBackend backend) {
  run_grad_add(state, backend, true);
}
void BM_GemmTnProductAxpy_args(benchmark::internal::Benchmark* b) { b->Args({16, 64, 6}); }
void BM_GemmTnAccumulate_args(benchmark::internal::Benchmark* b) { b->Args({16, 64, 6}); }

YF_GEMM_BENCH(BM_GemmTnProductAxpy);
YF_GEMM_BENCH(BM_GemmTnAccumulate);

// -- Small-path crossover: forced engines on n^3 cubes. ----------------------
// The dispatch thresholds in core/gemm.hpp are pinned from this table:
// below the crossover the unpacked small path must win, above it the
// packed hierarchy must win, on both backends.

void BM_GemmPackedForced(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  const auto n = state.range(0);
  auto ops = make_operands(core::GemmVariant::kNN, n, n, n);
  for (auto _ : state) {
    core::detail::gemm_packed(core::GemmVariant::kNN, ops.c.data().data(), ops.a.data().data(),
                              ops.b.data().data(), n, n, n);
    benchmark::DoNotOptimize(ops.c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_GemmSmallForced(benchmark::State& state, core::KernelBackend backend) {
  yfb::BackendScope scope(state, backend);
  if (!scope) return;
  const auto n = state.range(0);
  auto ops = make_operands(core::GemmVariant::kNN, n, n, n);
  for (auto _ : state) {
    core::detail::gemm_small(core::GemmVariant::kNN, ops.c.data().data(), ops.a.data().data(),
                             ops.b.data().data(), n, n, n);
    benchmark::DoNotOptimize(ops.c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}

void BM_GemmCrossover_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {8, 16, 24, 32, 48, 64}) b->Args({n});
}
BENCHMARK_CAPTURE(BM_GemmPackedForced, scalar, core::KernelBackend::kScalar)
    ->Apply(BM_GemmCrossover_args);
BENCHMARK_CAPTURE(BM_GemmPackedForced, simd, core::KernelBackend::kSimd)
    ->Apply(BM_GemmCrossover_args);
BENCHMARK_CAPTURE(BM_GemmSmallForced, scalar, core::KernelBackend::kScalar)
    ->Apply(BM_GemmCrossover_args);
BENCHMARK_CAPTURE(BM_GemmSmallForced, simd, core::KernelBackend::kSimd)
    ->Apply(BM_GemmCrossover_args);

// -- Kernel tables at the workloads' shapes. ---------------------------------
// Each table (scalar, avx2, avx512; runs skip where the CPU cannot run the
// table) through the forced small path, which calls the active table's
// gemm_small_* entry: train_lm's and async_socket's batch-6 LSTM (gate
// products, LM-head logits, and their pullbacks), serve_lm's batch-3
// gates, and a one-row decode whose k spans two KC panels. An AVX-512
// override keeps its place in kAvx512Kernels only while it beats avx2
// here.

void run_table_gemm(benchmark::State& state, const char* table, core::GemmVariant v) {
  yfb::TableScope scope(state, table);
  if (!scope) return;
  const auto m = state.range(0), n = state.range(1), k = state.range(2);
  auto ops = make_operands(v, m, n, k);
  for (auto _ : state) {
    core::detail::gemm_small(v, ops.c.data().data(), ops.a.data().data(), ops.b.data().data(), m,
                             n, k);
    benchmark::DoNotOptimize(ops.c.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * n * k);
}

void BM_TableGemmNn(benchmark::State& state, const char* table) {
  run_table_gemm(state, table, core::GemmVariant::kNN);
}
void BM_TableGemmNt(benchmark::State& state, const char* table) {
  run_table_gemm(state, table, core::GemmVariant::kNT);
}
void BM_TableGemmTn(benchmark::State& state, const char* table) {
  run_table_gemm(state, table, core::GemmVariant::kTN);
}

void BM_TableGemmNn_args(benchmark::internal::Benchmark* b) {
  b->Args({6, 64, 12})      // train_lm layer-0 input projection x[6,12] @ Wx[12,64]
      ->Args({6, 64, 16})   // train_lm recurrent gates h[6,16] @ Wh[16,64]
      ->Args({6, 33, 16})   // train_lm LM head h[6,16] @ Wd[16,33]
      ->Args({3, 64, 16})   // serve_lm gates at a coalesced batch of 3
      ->Args({1, 256, 400});  // one-row decode, two KC panels (ROADMAP item 8)
}
void BM_TableGemmTn_args(benchmark::internal::Benchmark* b) {
  b->Args({16, 64, 6})      // dWh += h^T @ dGates
      ->Args({12, 64, 6})   // dWx += x^T @ dGates
      ->Args({16, 33, 6});  // dWd += h^T @ dLogits
}
void BM_TableGemmNt_args(benchmark::internal::Benchmark* b) {
  b->Args({6, 16, 64})      // dH = dGates @ Wh^T
      ->Args({6, 12, 64})   // dX = dGates @ Wx^T
      ->Args({6, 16, 33});  // dH = dLogits @ Wd^T
}

#define YF_TABLE_BENCH(fn)                                   \
  BENCHMARK_CAPTURE(fn, scalar, "scalar")->Apply(fn##_args); \
  BENCHMARK_CAPTURE(fn, avx2, "avx2")->Apply(fn##_args);     \
  BENCHMARK_CAPTURE(fn, avx512, "avx512")->Apply(fn##_args)

YF_TABLE_BENCH(BM_TableGemmNn);
YF_TABLE_BENCH(BM_TableGemmTn);
YF_TABLE_BENCH(BM_TableGemmNt);

}  // namespace

int main(int argc, char** argv) {
  return yfb::benchmark_main_with_json(argc, argv, "micro_gemm");
}
