// Fused span-based primitives shared by the tensor, optimizer, tuner and
// async hot paths (DESIGN.md §4).
//
// Everything operates on raw `std::span<double>` so the same kernel serves
// a Tensor, a ParamArena buffer, or a plain vector without copies. Each
// call dispatches to the active kernel backend (core/kernels/backend.hpp):
// a portable scalar path or an AVX2 path selected at runtime via cpuid and
// overridable with YF_KERNEL_BACKEND=scalar|simd. Three rules keep results
// independent of backend, machine, and worker count:
//
//  * elementwise kernels may be partitioned over the thread pool and
//    vectorized across elements -- each element's arithmetic sequence is
//    fixed (and FMA-free), so neither partitioning nor lane width can
//    change rounding. That includes exp, sigmoid and tanh, whose
//    sequences are the scalar references in kernel_table.hpp rather
//    than libm calls;
//  * reductions (sum, dot, squared_norm, ...) run on one thread in a
//    fixed 8-lane blocked accumulation order (kernel_table.hpp) that
//    every backend reproduces exactly;
//  * matrix products live in core/gemm.hpp and accumulate each output
//    element in the canonical KC-panel order (kernel_table.hpp).
//
// The fused optimizer sweeps below replicate the exact operation sequence
// of the historical per-tensor implementations (e.g. momentum_step is
// `v *= mu; v += -lr*g; x += v` per element), compiled with
// -ffp-contract=off so statement fusion cannot re-round.
#pragma once

#include <cstdint>
#include <span>

#include "core/kernels/backend.hpp"
#include "core/parallel.hpp"

namespace yf::core {

// -- Elementwise building blocks. -------------------------------------------
void fill(std::span<double> x, double v);
void copy(std::span<double> dst, std::span<const double> src);
void scale(std::span<double> x, double a);                          ///< x *= a
void axpy(std::span<double> y, std::span<const double> x, double a);  ///< y += a*x

// -- Transcendentals (dst may alias src exactly). ----------------------------
// Defined bit for bit by exp_ref / sigmoid_ref / tanh_ref in
// kernel_table.hpp, not by the host's libm.
void exp(std::span<double> dst, std::span<const double> src);      ///< dst = e^src
void sigmoid(std::span<double> dst, std::span<const double> src);  ///< dst = 1/(1+e^-src)
void tanh(std::span<double> dst, std::span<const double> src);

// -- Reductions (sequential, lane-blocked, deterministic). ------------------
double sum(std::span<const double> x);
double squared_norm(std::span<const double> x);
double dot(std::span<const double> a, std::span<const double> b);
double max_abs(std::span<const double> x);

// -- EWMA kernels (tuner measurement hot path). -----------------------------
/// avg = beta*avg + (1-beta)*x, elementwise.
void ewma_update(std::span<double> avg, std::span<const double> x, double beta);

/// One fused pass updating the first and second gradient moments:
///   m1 = beta*m1 + (1-beta)*x;  m2 = beta*m2 + (1-beta)*x^2.
/// Replaces a square() temporary plus two separate EWMA sweeps.
void ewma_update_moments(std::span<double> m1, std::span<double> m2,
                         std::span<const double> x, double beta);

/// sum_i max-free debiased variance contribution:
///   sum_i (m2_raw[i]*inv2 - (m1_raw[i]*inv1)^2)
/// where inv = 1/(1 - beta^t) is the zero-debias reciprocal.
double debiased_variance_sum(std::span<const double> m1_raw, std::span<const double> m2_raw,
                             double inv1, double inv2);

// -- Clipping. ---------------------------------------------------------------
/// Scale x so its L2 norm is at most max_norm; returns the pre-clip norm.
double clip_scale(std::span<double> x, double max_norm);

// -- Fused optimizer sweeps (one pass over the arena each). ------------------
void sgd_step(std::span<double> x, std::span<const double> g, double lr);

/// Polyak (nesterov=false): v = mu*v - lr*g; x += v.
/// Nesterov: same velocity update, then x += mu*v - lr*g.
void momentum_step(std::span<double> x, std::span<double> v, std::span<const double> g,
                   double lr, double mu, bool nesterov);

/// bc1/bc2 are the bias-correction denominators 1 - beta^t.
void adam_step(std::span<double> x, std::span<double> m, std::span<double> v,
               std::span<const double> g, double lr, double beta1, double beta2, double bc1,
               double bc2, double eps);

void adagrad_step(std::span<double> x, std::span<double> accum, std::span<const double> g,
                  double lr, double eps);

// -- Generic elementwise map/binary (parallel above the grain). --------------
template <typename F>
void map(std::span<double> dst, std::span<const double> src, F&& f) {
  const auto n = static_cast<std::int64_t>(dst.size());
  double* o = dst.data();
  const double* a = src.data();
  parallel_for(n, kDefaultGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) o[i] = f(a[i]);
  });
}

template <typename F>
void binary(std::span<double> dst, std::span<const double> a, std::span<const double> b, F&& f) {
  const auto n = static_cast<std::int64_t>(dst.size());
  double* o = dst.data();
  const double* pa = a.data();
  const double* pb = b.data();
  parallel_for(n, kDefaultGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) o[i] = f(pa[i], pb[i]);
  });
}

}  // namespace yf::core
