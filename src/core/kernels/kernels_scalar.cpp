// Scalar kernel backend: the portable reference implementation of the
// dispatch table (kernel_table.hpp). Elementwise entries are the exact
// per-element operation sequences documented in core/kernels.hpp;
// reductions emulate the 8-lane blocked accumulation order so their
// results match the AVX2 backend bit-for-bit. CMakeLists.txt compiles
// this TU with auto-vectorization disabled: the scalar backend is the
// genuinely-scalar reference the SIMD backend is compared against
// (results are identical either way; only codegen differs).
#include <algorithm>
#include <cmath>

#include "core/kernels/kernel_table.hpp"

namespace yf::core::detail {

namespace {

// -- Elementwise chunk kernels. ----------------------------------------------

void fill_scalar(double* x, std::int64_t n, double v) {
  for (std::int64_t i = 0; i < n; ++i) x[i] = v;
}

void copy_scalar(double* dst, const double* src, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
}

void scale_scalar(double* x, std::int64_t n, double a) {
  for (std::int64_t i = 0; i < n; ++i) x[i] = x[i] * a;
}

void axpy_scalar(double* y, const double* x, std::int64_t n, double a) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = y[i] + a * x[i];
}

void ewma_scalar(double* avg, const double* x, std::int64_t n, double beta) {
  const double om = 1.0 - beta;
  for (std::int64_t i = 0; i < n; ++i) {
    double a = avg[i] * beta;
    a += om * x[i];
    avg[i] = a;
  }
}

void ewma_moments_scalar(double* m1, double* m2, const double* x, std::int64_t n, double beta) {
  const double om = 1.0 - beta;
  for (std::int64_t i = 0; i < n; ++i) {
    const double g = x[i];
    double a = m1[i] * beta;
    a += om * g;
    m1[i] = a;
    double b = m2[i] * beta;
    b += om * (g * g);
    m2[i] = b;
  }
}

// -- Transcendentals: loops over the kernel_table.hpp references. ------------

void exp_scalar(double* y, const double* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = exp_ref(x[i]);
}

void sigmoid_scalar(double* y, const double* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = sigmoid_ref(x[i]);
}

void tanh_scalar(double* y, const double* x, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = tanh_ref(x[i]);
}

// -- Fused optimizer sweeps. -------------------------------------------------

void momentum_scalar(double* x, double* v, const double* g, std::int64_t n, double lr, double mu,
                     bool nesterov) {
  if (nesterov) {
    for (std::int64_t i = 0; i < n; ++i) {
      double vi = v[i] * mu;
      vi += -lr * g[i];
      v[i] = vi;
      x[i] += mu * vi;
      x[i] += -lr * g[i];
    }
  } else {
    for (std::int64_t i = 0; i < n; ++i) {
      double vi = v[i] * mu;
      vi += -lr * g[i];
      v[i] = vi;
      x[i] += vi;
    }
  }
}

void adam_scalar(double* x, double* m, double* v, const double* g, std::int64_t n, double lr,
                 double beta1, double beta2, double bc1, double bc2, double eps) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double gi = g[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    x[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void adagrad_scalar(double* x, double* accum, const double* g, std::int64_t n, double lr,
                    double eps) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double gi = g[i];
    accum[i] += gi * gi;
    x[i] -= lr * gi / (std::sqrt(accum[i]) + eps);
  }
}

void rmsprop_scalar(double* x, double* sq, const double* g, std::int64_t n, double lr,
                    double decay, double eps) {
  for (std::int64_t i = 0; i < n; ++i) {
    const double gi = g[i];
    sq[i] = decay * sq[i] + (1.0 - decay) * gi * gi;
    x[i] -= lr * gi / (std::sqrt(sq[i]) + eps);
  }
}

// -- Packed GEMM microkernel + small-matrix fast paths. ----------------------
// The scalar backend runs the shared reference implementations from
// kernel_table.hpp directly: they ARE the canonical accumulation order
// the AVX2 twins reproduce operation-for-operation.

void gemm_micro_scalar(double* c, std::int64_t ldc, const double* ap, const double* bp,
                       std::int64_t kc, std::int64_t rows, std::int64_t cols, bool beta0) {
  gemm_micro_ref(c, ldc, ap, bp, kc, rows, cols, beta0);
}

/// Blocked small path for row-major op(B) (NN/TN): MR-row groups with an
/// MR x NR accumulator block, mirroring the AVX2 small kernel's loop
/// nest so B is streamed ceil(m/MR) times instead of once per row. Per
/// element this is still gemm_small_ref's canonical order -- one
/// accumulator per element, kk ascending within each KC panel. The
/// prefetch matches the AVX2 twin: the column-strip walk advances one
/// page per kk, which the hardware streamer cannot follow.
template <typename LoadA>
void gemm_small_rowmajor_b_scalar(double* c, const double* b, std::int64_t m, std::int64_t n,
                                  std::int64_t k, bool accumulate, LoadA la) {
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t ke = std::min(k, pc + kGemmKC);
    const bool beta0 = pc == 0 && !accumulate;
    std::int64_t j = 0;
    // Column strip outermost, row groups inner (like the AVX2 twin):
    // every group after the first re-reads an L1-resident strip of B.
    for (; j + kGemmNR <= n; j += kGemmNR) {
      std::int64_t i = 0;
      for (; i + kGemmMR <= m; i += kGemmMR) {
        double acc[kGemmMR][kGemmNR] = {};
        for (std::int64_t kk = pc; kk < ke; ++kk) {
          const double* brow = b + kk * n + j;
          __builtin_prefetch(brow + 16 * n);
          for (std::int64_t r = 0; r < kGemmMR; ++r) {
            const double ar = la(i + r, kk);
            for (std::int64_t jj = 0; jj < kGemmNR; ++jj) acc[r][jj] += ar * brow[jj];
          }
        }
        for (std::int64_t r = 0; r < kGemmMR; ++r) {
          double* crow = c + (i + r) * n + j;
          if (beta0) {
            for (std::int64_t jj = 0; jj < kGemmNR; ++jj) crow[jj] = acc[r][jj];
          } else {
            for (std::int64_t jj = 0; jj < kGemmNR; ++jj) crow[jj] += acc[r][jj];
          }
        }
      }
      for (; i < m; ++i) {
        double acc[kGemmNR] = {};
        for (std::int64_t kk = pc; kk < ke; ++kk) {
          const double* brow = b + kk * n + j;
          const double ar = la(i, kk);
          for (std::int64_t jj = 0; jj < kGemmNR; ++jj) acc[jj] += ar * brow[jj];
        }
        double* crow = c + i * n + j;
        if (beta0) {
          for (std::int64_t jj = 0; jj < kGemmNR; ++jj) crow[jj] = acc[jj];
        } else {
          for (std::int64_t jj = 0; jj < kGemmNR; ++jj) crow[jj] += acc[jj];
        }
      }
    }
    for (; j < n; ++j) {
      for (std::int64_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (std::int64_t kk = pc; kk < ke; ++kk) acc += la(i, kk) * b[kk * n + j];
        double& cij = c[i * n + j];
        cij = beta0 ? acc : cij + acc;
      }
    }
  }
}

void gemm_small_nn_scalar(double* c, const double* a, const double* b, std::int64_t m,
                          std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_small_rowmajor_b_scalar(c, b, m, n, k, accumulate, [a, k](std::int64_t i, std::int64_t kk) {
    return a[i * k + kk];
  });
}

void gemm_small_nt_scalar(double* c, const double* a, const double* b, std::int64_t m,
                          std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_small_ref(
      c, m, n, k, [a, k](std::int64_t i, std::int64_t kk) { return a[i * k + kk]; },
      [b, k](std::int64_t kk, std::int64_t j) { return b[j * k + kk]; }, accumulate);
}

void gemm_small_tn_scalar(double* c, const double* a, const double* b, std::int64_t m,
                          std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_small_rowmajor_b_scalar(c, b, m, n, k, accumulate, [a, m](std::int64_t i, std::int64_t kk) {
    return a[kk * m + i];
  });
}

// -- Lane-blocked reductions. ------------------------------------------------
// One skeleton defines the canonical order for every reduction: full
// blocks feed lane l with elements i*kReduceLanes + l, tail elements
// land in lanes 0..tail-1, combine_lanes finishes. The AVX2 backend
// (lane_reduce_avx2) performs the identical operations with two 4-wide
// accumulators; only the per-element term varies between reductions.

template <typename Term>
double lane_reduce(std::int64_t n, Term term) {
  double acc[kReduceLanes] = {};
  const std::int64_t nb = n - n % kReduceLanes;
  for (std::int64_t i = 0; i < nb; i += kReduceLanes) {
    for (std::int64_t l = 0; l < kReduceLanes; ++l) acc[l] += term(i + l);
  }
  for (std::int64_t l = 0; l + nb < n; ++l) acc[l] += term(nb + l);
  return combine_lanes(acc);
}

double sum_scalar(const double* x, std::int64_t n) {
  return lane_reduce(n, [x](std::int64_t i) { return x[i]; });
}

double squared_norm_scalar(const double* x, std::int64_t n) {
  return lane_reduce(n, [x](std::int64_t i) { return x[i] * x[i]; });
}

double dot_scalar(const double* a, const double* b, std::int64_t n) {
  return lane_reduce(n, [a, b](std::int64_t i) { return a[i] * b[i]; });
}

double max_abs_scalar(const double* x, std::int64_t n) {
  double m = 0.0;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

double debiased_variance_sum_scalar(const double* m1, const double* m2, std::int64_t n,
                                    double inv1, double inv2) {
  return lane_reduce(n, [m1, m2, inv1, inv2](std::int64_t i) {
    const double m = m1[i] * inv1;
    return m2[i] * inv2 - m * m;
  });
}

}  // namespace

const KernelTable kScalarKernels = {
    .fill = fill_scalar,
    .copy = copy_scalar,
    .scale = scale_scalar,
    .axpy = axpy_scalar,
    .ewma = ewma_scalar,
    .ewma_moments = ewma_moments_scalar,
    .exp = exp_scalar,
    .sigmoid = sigmoid_scalar,
    .tanh = tanh_scalar,
    .momentum = momentum_scalar,
    .adam = adam_scalar,
    .adagrad = adagrad_scalar,
    .rmsprop = rmsprop_scalar,
    .gemm_micro = gemm_micro_scalar,
    .gemm_small_nn = gemm_small_nn_scalar,
    .gemm_small_nt = gemm_small_nt_scalar,
    .gemm_small_tn = gemm_small_tn_scalar,
    .sum = sum_scalar,
    .squared_norm = squared_norm_scalar,
    .dot = dot_scalar,
    .max_abs = max_abs_scalar,
    .debiased_variance_sum = debiased_variance_sum_scalar,
};

}  // namespace yf::core::detail
