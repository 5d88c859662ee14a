// AVX2 kernel backend. This translation unit is the only one compiled
// with -mavx2 -mfma (CMakeLists.txt adds the flags when the compiler
// accepts them and defines YF_KERNELS_AVX2 for the target); callers
// reach it exclusively through the dispatch tables after the runtime
// cpuid guards in backend.cpp -- its own table, and the AVX-512 table,
// which points every entry it does not override at the functions that
// kernels_avx2.hpp declares -- so no AVX2 instruction executes on a
// machine that lacks the feature.
//
// Bit-identity rules (kernel_table.hpp):
//  * elementwise kernels vectorize across elements but keep each
//    element's mul/add/sub/div/sqrt sequence exactly as the scalar
//    backend evaluates it -- all of these are IEEE correctly-rounded,
//    so 4 lanes round like 4 scalars, and the bit operations, compares
//    and blends of exp/sigmoid/tanh are exact. _mm256_fmadd_pd is
//    deliberately never used: an FMA rounds once where the scalar path
//    rounds twice.
//  * reductions run two 4-wide accumulators (8 lanes) over full blocks,
//    spill to a lane array, fold the tail into lanes 0..tail-1, and
//    finish with the shared combine_lanes order -- operation-for-
//    operation what kernels_scalar.cpp does.
#ifdef YF_KERNELS_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>

#include "core/kernels/kernel_table.hpp"
#include "core/kernels/kernels_avx2.hpp"

namespace yf::core::detail {

namespace {

constexpr std::int64_t kVec = 4;  // doubles per 256-bit vector

}  // namespace

// -- Elementwise chunk kernels. ----------------------------------------------

void fill_avx2(double* x, std::int64_t n, double v) {
  const __m256d vv = _mm256_set1_pd(v);
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) _mm256_storeu_pd(x + i, vv);
  for (; i < n; ++i) x[i] = v;
}

void copy_avx2(double* dst, const double* src, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) _mm256_storeu_pd(dst + i, _mm256_loadu_pd(src + i));
  for (; i < n; ++i) dst[i] = src[i];
}

void scale_avx2(double* x, std::int64_t n, double a) {
  const __m256d av = _mm256_set1_pd(a);
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), av));
  }
  for (; i < n; ++i) x[i] = x[i] * a;
}

void axpy_avx2(double* y, const double* x, std::int64_t n, double a) {
  const __m256d av = _mm256_set1_pd(a);
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) {
    const __m256d yi = _mm256_loadu_pd(y + i);
    const __m256d xi = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(yi, _mm256_mul_pd(av, xi)));
  }
  for (; i < n; ++i) y[i] = y[i] + a * x[i];
}

void ewma_avx2(double* avg, const double* x, std::int64_t n, double beta) {
  const double om = 1.0 - beta;
  const __m256d bv = _mm256_set1_pd(beta);
  const __m256d ov = _mm256_set1_pd(om);
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) {
    const __m256d a = _mm256_mul_pd(_mm256_loadu_pd(avg + i), bv);
    const __m256d contrib = _mm256_mul_pd(ov, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(avg + i, _mm256_add_pd(a, contrib));
  }
  for (; i < n; ++i) {
    double a = avg[i] * beta;
    a += om * x[i];
    avg[i] = a;
  }
}

void ewma_moments_avx2(double* m1, double* m2, const double* x, std::int64_t n, double beta) {
  const double om = 1.0 - beta;
  const __m256d bv = _mm256_set1_pd(beta);
  const __m256d ov = _mm256_set1_pd(om);
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) {
    const __m256d g = _mm256_loadu_pd(x + i);
    const __m256d a = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(m1 + i), bv),
                                    _mm256_mul_pd(ov, g));
    _mm256_storeu_pd(m1 + i, a);
    const __m256d g2 = _mm256_mul_pd(g, g);
    const __m256d b = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(m2 + i), bv),
                                    _mm256_mul_pd(ov, g2));
    _mm256_storeu_pd(m2 + i, b);
  }
  for (; i < n; ++i) {
    const double g = x[i];
    double a = m1[i] * beta;
    a += om * g;
    m1[i] = a;
    double b = m2[i] * beta;
    b += om * (g * g);
    m2[i] = b;
  }
}

// -- Transcendentals. --------------------------------------------------------
// The fast paths of exp_ref / sigmoid_ref / tanh_ref (kernel_table.hpp),
// operation for operation on 4 lanes. A block with a lane outside the
// fast range -- or a NaN, which fails every ordered compare -- runs the
// scalar reference instead, as does the n % 8 tail.

namespace {

__m256d exp_fast_avx2(__m256d x) {
  const __m256d shifter = _mm256_set1_pd(kExpShifter);
  const __m256d t = _mm256_add_pd(_mm256_mul_pd(x, _mm256_set1_pd(kLog2e)), shifter);
  const __m256d k = _mm256_sub_pd(t, shifter);
  const __m256d r = _mm256_sub_pd(_mm256_sub_pd(x, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi))),
                                  _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo)));
  __m256d p = _mm256_set1_pd(kExpTaylor[0]);
  for (int i = 1; i < 14; ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, r), _mm256_set1_pd(kExpTaylor[i]));
  }
  const __m256i biased = _mm256_add_epi64(
      _mm256_castpd_si256(t), _mm256_set1_epi64x(static_cast<long long>(kExponentBias)));
  return _mm256_mul_pd(p, _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52)));
}

__m256d sigmoid_fast_avx2(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d e = exp_fast_avx2(_mm256_xor_pd(x, _mm256_set1_pd(-0.0)));
  return _mm256_div_pd(one, _mm256_add_pd(one, e));
}

__m256d tanh_rational_avx2(__m256d a) {
  const __m256d z = _mm256_mul_pd(a, a);
  __m256d pz =
      _mm256_add_pd(_mm256_mul_pd(_mm256_set1_pd(kTanhP[0]), z), _mm256_set1_pd(kTanhP[1]));
  pz = _mm256_add_pd(_mm256_mul_pd(pz, z), _mm256_set1_pd(kTanhP[2]));
  __m256d qz = _mm256_add_pd(z, _mm256_set1_pd(kTanhQ[0]));
  qz = _mm256_add_pd(_mm256_mul_pd(qz, z), _mm256_set1_pd(kTanhQ[1]));
  qz = _mm256_add_pd(_mm256_mul_pd(qz, z), _mm256_set1_pd(kTanhQ[2]));
  return _mm256_add_pd(a, _mm256_mul_pd(_mm256_mul_pd(a, z), _mm256_div_pd(pz, qz)));
}

__m256d tanh_exp_avx2(__m256d a) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d e = exp_fast_avx2(_mm256_add_pd(a, a));
  return _mm256_sub_pd(one, _mm256_div_pd(_mm256_set1_pd(2.0), _mm256_add_pd(e, one)));
}

__m256d tanh_fast_avx2(__m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d a = _mm256_andnot_pd(sign, x);
  const __m256d small = _mm256_cmp_pd(a, _mm256_set1_pd(kTanhRationalLimit), _CMP_LT_OQ);
  // Both branches are exact per lane, so the blend picks tanh_ref's result.
  const __m256d t = _mm256_blendv_pd(tanh_exp_avx2(a), tanh_rational_avx2(a), small);
  return _mm256_or_pd(t, _mm256_and_pd(x, sign));
}

/// y = fast(x) on each 8-element block whose lanes all satisfy
/// |x| <= limit, as two independent 4-lane chains, and y = ref(x)
/// element by element everywhere else. Both vectors are loaded before
/// either is stored, so y may alias x.
template <typename Fast, typename Ref>
void transcendental_avx2(double* y, const double* x, std::int64_t n, double limit, Fast fast,
                         Ref ref) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d lim = _mm256_set1_pd(limit);
  std::int64_t i = 0;
  for (; i + 2 * kVec <= n; i += 2 * kVec) {
    const __m256d x0 = _mm256_loadu_pd(x + i);
    const __m256d x1 = _mm256_loadu_pd(x + i + kVec);
    const __m256d in0 = _mm256_cmp_pd(_mm256_andnot_pd(sign, x0), lim, _CMP_LE_OQ);
    const __m256d in1 = _mm256_cmp_pd(_mm256_andnot_pd(sign, x1), lim, _CMP_LE_OQ);
    if (_mm256_movemask_pd(_mm256_and_pd(in0, in1)) != 0xF) {
      for (std::int64_t j = i; j < i + 2 * kVec; ++j) y[j] = ref(x[j]);
      continue;
    }
    const __m256d y0 = fast(x0);
    const __m256d y1 = fast(x1);
    _mm256_storeu_pd(y + i, y0);
    _mm256_storeu_pd(y + i + kVec, y1);
  }
  for (; i < n; ++i) y[i] = ref(x[i]);
}

void exp_avx2(double* y, const double* x, std::int64_t n) {
  transcendental_avx2(
      y, x, n, kExpFastLimit, [](__m256d v) { return exp_fast_avx2(v); }, exp_ref);
}

void sigmoid_avx2(double* y, const double* x, std::int64_t n) {
  transcendental_avx2(
      y, x, n, kExpFastLimit, [](__m256d v) { return sigmoid_fast_avx2(v); }, sigmoid_ref);
}

void tanh_avx2(double* y, const double* x, std::int64_t n) {
  transcendental_avx2(
      y, x, n, kTanhOneLimit, [](__m256d v) { return tanh_fast_avx2(v); }, tanh_ref);
}

}  // namespace

// -- Fused optimizer sweeps. -------------------------------------------------

void momentum_avx2(double* x, double* v, const double* g, std::int64_t n, double lr, double mu,
                   bool nesterov) {
  const __m256d muv = _mm256_set1_pd(mu);
  const __m256d nlr = _mm256_set1_pd(-lr);
  std::int64_t i = 0;
  if (nesterov) {
    for (; i + kVec <= n; i += kVec) {
      const __m256d gi = _mm256_loadu_pd(g + i);
      const __m256d step = _mm256_mul_pd(nlr, gi);
      const __m256d vi = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(v + i), muv), step);
      _mm256_storeu_pd(v + i, vi);
      __m256d xi = _mm256_loadu_pd(x + i);
      xi = _mm256_add_pd(xi, _mm256_mul_pd(muv, vi));
      xi = _mm256_add_pd(xi, step);
      _mm256_storeu_pd(x + i, xi);
    }
    for (; i < n; ++i) {
      double vi = v[i] * mu;
      vi += -lr * g[i];
      v[i] = vi;
      x[i] += mu * vi;
      x[i] += -lr * g[i];
    }
  } else {
    for (; i + kVec <= n; i += kVec) {
      const __m256d gi = _mm256_loadu_pd(g + i);
      const __m256d vi = _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(v + i), muv),
                                       _mm256_mul_pd(nlr, gi));
      _mm256_storeu_pd(v + i, vi);
      _mm256_storeu_pd(x + i, _mm256_add_pd(_mm256_loadu_pd(x + i), vi));
    }
    for (; i < n; ++i) {
      double vi = v[i] * mu;
      vi += -lr * g[i];
      v[i] = vi;
      x[i] += vi;
    }
  }
}

void adam_avx2(double* x, double* m, double* v, const double* g, std::int64_t n, double lr,
               double beta1, double beta2, double bc1, double bc2, double eps) {
  const __m256d b1 = _mm256_set1_pd(beta1);
  const __m256d ob1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d b2 = _mm256_set1_pd(beta2);
  const __m256d ob2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d bc1v = _mm256_set1_pd(bc1);
  const __m256d bc2v = _mm256_set1_pd(bc2);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d epsv = _mm256_set1_pd(eps);
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) {
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(ob1, gi));
    _mm256_storeu_pd(m + i, mi);
    // (1-b2)*gi*gi associates left-to-right, exactly like the scalar path.
    const __m256d vi = _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                                     _mm256_mul_pd(_mm256_mul_pd(ob2, gi), gi));
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1v);
    const __m256d vhat = _mm256_div_pd(vi, bc2v);
    const __m256d den = _mm256_add_pd(_mm256_sqrt_pd(vhat), epsv);
    const __m256d upd = _mm256_div_pd(_mm256_mul_pd(lrv, mhat), den);
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), upd));
  }
  for (; i < n; ++i) {
    const double gi = g[i];
    m[i] = beta1 * m[i] + (1.0 - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0 - beta2) * gi * gi;
    const double mhat = m[i] / bc1;
    const double vhat = v[i] / bc2;
    x[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void adagrad_avx2(double* x, double* accum, const double* g, std::int64_t n, double lr,
                  double eps) {
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d epsv = _mm256_set1_pd(eps);
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) {
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d ai = _mm256_add_pd(_mm256_loadu_pd(accum + i), _mm256_mul_pd(gi, gi));
    _mm256_storeu_pd(accum + i, ai);
    const __m256d den = _mm256_add_pd(_mm256_sqrt_pd(ai), epsv);
    const __m256d upd = _mm256_div_pd(_mm256_mul_pd(lrv, gi), den);
    _mm256_storeu_pd(x + i, _mm256_sub_pd(_mm256_loadu_pd(x + i), upd));
  }
  for (; i < n; ++i) {
    const double gi = g[i];
    accum[i] += gi * gi;
    x[i] -= lr * gi / (std::sqrt(accum[i]) + eps);
  }
}

// -- Packed GEMM microkernel + small-matrix fast paths. ----------------------

/// 4x8 register tile over packed panels: 8 ymm accumulators (4 rows x
/// two 4-wide column vectors), one broadcast per row per kk. Each lane
/// is one C element's accumulator, so the mul+add (never FMA) sequence
/// per element is exactly gemm_micro_ref's. Edge tiles (rows < MR or
/// cols < NR) run the shared reference directly -- same order, scalar
/// stores that stay inside the valid corner.
void gemm_micro_avx2(double* c, std::int64_t ldc, const double* ap, const double* bp,
                     std::int64_t kc, std::int64_t rows, std::int64_t cols, bool beta0) {
  if (rows < kGemmMR || cols < kGemmNR) {
    gemm_micro_ref(c, ldc, ap, bp, kc, rows, cols, beta0);
    return;
  }
  __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
  __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
  __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const double* a = ap + kk * kGemmMR;
    const double* b = bp + kk * kGemmNR;
    const __m256d b0 = _mm256_loadu_pd(b);
    const __m256d b1 = _mm256_loadu_pd(b + kVec);
    __m256d ar = _mm256_broadcast_sd(a + 0);
    acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(ar, b0));
    acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(ar, b1));
    ar = _mm256_broadcast_sd(a + 1);
    acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(ar, b0));
    acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(ar, b1));
    ar = _mm256_broadcast_sd(a + 2);
    acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(ar, b0));
    acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(ar, b1));
    ar = _mm256_broadcast_sd(a + 3);
    acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(ar, b0));
    acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(ar, b1));
  }
  double* c0 = c;
  double* c1 = c + ldc;
  double* c2 = c + 2 * ldc;
  double* c3 = c + 3 * ldc;
  if (beta0) {
    _mm256_storeu_pd(c0, acc00);
    _mm256_storeu_pd(c0 + kVec, acc01);
    _mm256_storeu_pd(c1, acc10);
    _mm256_storeu_pd(c1 + kVec, acc11);
    _mm256_storeu_pd(c2, acc20);
    _mm256_storeu_pd(c2 + kVec, acc21);
    _mm256_storeu_pd(c3, acc30);
    _mm256_storeu_pd(c3 + kVec, acc31);
  } else {
    _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0), acc00));
    _mm256_storeu_pd(c0 + kVec, _mm256_add_pd(_mm256_loadu_pd(c0 + kVec), acc01));
    _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), acc10));
    _mm256_storeu_pd(c1 + kVec, _mm256_add_pd(_mm256_loadu_pd(c1 + kVec), acc11));
    _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), acc20));
    _mm256_storeu_pd(c2 + kVec, _mm256_add_pd(_mm256_loadu_pd(c2 + kVec), acc21));
    _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), acc30));
    _mm256_storeu_pd(c3 + kVec, _mm256_add_pd(_mm256_loadu_pd(c3 + kVec), acc31));
  }
}

namespace {

/// Small NN/TN paths: op(B) rows are contiguous, so the j loop
/// vectorizes with one accumulator lane per column -- per element, the
/// canonical panel order; only the A addressing differs between NN and
/// TN. Rows are processed in MR-groups reading B *in place* (each
/// kk-group of NR columns is contiguous in memory), i.e. the packed
/// microkernel without the packing: B is streamed ceil(m/MR) times
/// instead of being written and re-read through a packed copy, which is
/// what makes this path the right one for skinny-m products (LM decode,
/// the m <= 16 training matmuls).
template <typename LoadARow>
void gemm_small_rowmajor_b_avx2(double* c, const double* b, std::int64_t m, std::int64_t n,
                                std::int64_t k, bool accumulate, LoadARow la) {
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t ke = std::min(k, pc + kGemmKC);
    const bool beta0 = pc == 0 && !accumulate;
    std::int64_t j = 0;
    // Column strip outermost, row groups inner: every group after the
    // first re-reads the same kc x NR strip of B while it is still
    // L1-resident, so B is streamed from cold storage once per panel
    // regardless of m.
    for (; j + kGemmNR <= n; j += kGemmNR) {
      std::int64_t i = 0;
      for (; i + kGemmMR <= m; i += kGemmMR) {
        __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
        __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
        __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
        __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
        for (std::int64_t kk = pc; kk < ke; ++kk) {
          const double* brow = b + kk * n + j;
          // The column-strip walk advances one page per kk when n is
          // ~512+, which the L2 streamer (page-bounded) cannot follow;
          // prefetching a few rows ahead hides that latency (both cache
          // lines: an unaligned 64-byte strip straddles two). Prefetch
          // never changes results.
          _mm_prefetch(reinterpret_cast<const char*>(brow + 16 * n), _MM_HINT_T0);
          _mm_prefetch(reinterpret_cast<const char*>(brow + 16 * n + kGemmNR - 1), _MM_HINT_T0);
          const __m256d b0 = _mm256_loadu_pd(brow);
          const __m256d b1 = _mm256_loadu_pd(brow + kVec);
          __m256d ar = _mm256_set1_pd(la(i, kk));
          acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(ar, b0));
          acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(ar, b1));
          ar = _mm256_set1_pd(la(i + 1, kk));
          acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(ar, b0));
          acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(ar, b1));
          ar = _mm256_set1_pd(la(i + 2, kk));
          acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(ar, b0));
          acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(ar, b1));
          ar = _mm256_set1_pd(la(i + 3, kk));
          acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(ar, b0));
          acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(ar, b1));
        }
        double* c0 = c + i * n + j;
        double* c1 = c0 + n;
        double* c2 = c0 + 2 * n;
        double* c3 = c0 + 3 * n;
        if (beta0) {
          _mm256_storeu_pd(c0, acc00);
          _mm256_storeu_pd(c0 + kVec, acc01);
          _mm256_storeu_pd(c1, acc10);
          _mm256_storeu_pd(c1 + kVec, acc11);
          _mm256_storeu_pd(c2, acc20);
          _mm256_storeu_pd(c2 + kVec, acc21);
          _mm256_storeu_pd(c3, acc30);
          _mm256_storeu_pd(c3 + kVec, acc31);
        } else {
          _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0), acc00));
          _mm256_storeu_pd(c0 + kVec, _mm256_add_pd(_mm256_loadu_pd(c0 + kVec), acc01));
          _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), acc10));
          _mm256_storeu_pd(c1 + kVec, _mm256_add_pd(_mm256_loadu_pd(c1 + kVec), acc11));
          _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), acc20));
          _mm256_storeu_pd(c2 + kVec, _mm256_add_pd(_mm256_loadu_pd(c2 + kVec), acc21));
          _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), acc30));
          _mm256_storeu_pd(c3 + kVec, _mm256_add_pd(_mm256_loadu_pd(c3 + kVec), acc31));
        }
      }
      // Row remainder on the (now hot) strip: one row, two 4-wide vecs.
      for (; i < m; ++i) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        for (std::int64_t kk = pc; kk < ke; ++kk) {
          const double* brow = b + kk * n + j;
          const __m256d av = _mm256_set1_pd(la(i, kk));
          acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
          acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(av, _mm256_loadu_pd(brow + kVec)));
        }
        double* crow = c + i * n + j;
        if (beta0) {
          _mm256_storeu_pd(crow, acc0);
          _mm256_storeu_pd(crow + kVec, acc1);
        } else {
          _mm256_storeu_pd(crow, _mm256_add_pd(_mm256_loadu_pd(crow), acc0));
          _mm256_storeu_pd(crow + kVec, _mm256_add_pd(_mm256_loadu_pd(crow + kVec), acc1));
        }
      }
    }
    // Column tail (< NR): scalar per element, same per-element order.
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

void gemm_small_nn_avx2(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_small_rowmajor_b_avx2(c, b, m, n, k, accumulate, [a, k](std::int64_t i, std::int64_t kk) {
    return a[i * k + kk];
  });
}

/// NT tile: R rows x 4 columns of C, one C element per accumulator lane
/// as in the NN/TN path. op(B) columns are rows of B, so four B rows are
/// loaded four kk at a time and each 4x4 block is transposed in
/// registers; btq then holds op(B)[kk+q][j..j+3] and every lane still
/// sees its kk in ascending order. The k % 4 tail gathers its column
/// vector element by element.
template <int R>
void nt_tile(double* c, const double* a, const double* b, std::int64_t n, std::int64_t k,
             std::int64_t i, std::int64_t j, std::int64_t pc, std::int64_t ke, bool beta0) {
  const double* b0 = b + j * k;
  const double* b1 = b0 + k;
  const double* b2 = b1 + k;
  const double* b3 = b2 + k;
  __m256d acc[R];
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
  std::int64_t kk = pc;
  for (; kk + kVec <= ke; kk += kVec) {
    const __m256d r0 = _mm256_loadu_pd(b0 + kk);
    const __m256d r1 = _mm256_loadu_pd(b1 + kk);
    const __m256d r2 = _mm256_loadu_pd(b2 + kk);
    const __m256d r3 = _mm256_loadu_pd(b3 + kk);
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);             // r0[0] r1[0] r0[2] r1[2]
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);             // r0[1] r1[1] r0[3] r1[3]
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);             // r2[0] r3[0] r2[2] r3[2]
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);             // r2[1] r3[1] r2[3] r3[3]
    const __m256d bt0 = _mm256_permute2f128_pd(t0, t2, 0x20);  // r0[0] r1[0] r2[0] r3[0]
    const __m256d bt1 = _mm256_permute2f128_pd(t1, t3, 0x20);  // r0[1] r1[1] r2[1] r3[1]
    const __m256d bt2 = _mm256_permute2f128_pd(t0, t2, 0x31);  // r0[2] r1[2] r2[2] r3[2]
    const __m256d bt3 = _mm256_permute2f128_pd(t1, t3, 0x31);  // r0[3] r1[3] r2[3] r3[3]
    for (int r = 0; r < R; ++r) {
      const double* arow = a + (i + r) * k + kk;
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(_mm256_set1_pd(arow[0]), bt0));
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(_mm256_set1_pd(arow[1]), bt1));
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(_mm256_set1_pd(arow[2]), bt2));
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(_mm256_set1_pd(arow[3]), bt3));
    }
  }
  for (; kk < ke; ++kk) {
    const __m256d bt = _mm256_set_pd(b3[kk], b2[kk], b1[kk], b0[kk]);
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(_mm256_set1_pd(a[(i + r) * k + kk]), bt));
    }
  }
  for (int r = 0; r < R; ++r) {
    double* crow = c + (i + r) * n + j;
    _mm256_storeu_pd(crow, beta0 ? acc[r] : _mm256_add_pd(_mm256_loadu_pd(crow), acc[r]));
  }
}

/// Small NT path (autograd dA = dZ * W^T, tied-embedding decode): 4-wide
/// column groups outermost, so the four B rows a group transposes stay
/// L1-resident across its row tiles. Rows run in MR-row tiles plus one
/// joint 1-3-row remainder tile (the tile's accumulators stay in
/// registers because R is a template constant); scalar columns for
/// n % 4, in the same per-element order.
void gemm_small_nt_avx2(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k, bool accumulate) {
  static_assert(kGemmMR == 4, "the remainder switch covers 1..3 rows");
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t ke = std::min(k, pc + kGemmKC);
    const bool beta0 = pc == 0 && !accumulate;
    std::int64_t j = 0;
    for (; j + kVec <= n; j += kVec) {
      std::int64_t i = 0;
      for (; i + kGemmMR <= m; i += kGemmMR) nt_tile<kGemmMR>(c, a, b, n, k, i, j, pc, ke, beta0);
      switch (m - i) {
        case 1:
          nt_tile<1>(c, a, b, n, k, i, j, pc, ke, beta0);
          break;
        case 2:
          nt_tile<2>(c, a, b, n, k, i, j, pc, ke, beta0);
          break;
        case 3:
          nt_tile<3>(c, a, b, n, k, i, j, pc, ke, beta0);
          break;
        default:
          break;
      }
    }
    for (; j < n; ++j) {
      for (std::int64_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (std::int64_t kk = pc; kk < ke; ++kk) acc += a[i * k + kk] * b[j * k + kk];
        double& cij = c[i * n + j];
        cij = beta0 ? acc : cij + acc;
      }
    }
  }
}

void gemm_small_tn_avx2(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_small_rowmajor_b_avx2(c, b, m, n, k, accumulate, [a, m](std::int64_t i, std::int64_t kk) {
    return a[kk * m + i];
  });
}

// -- Lane-blocked reductions. ------------------------------------------------
// Two 4-wide accumulators cover the 8 contract lanes: acc0 holds lanes
// 0-3, acc1 lanes 4-7. After the blocked loop both spill to a lane
// array; the tail and final combine run the shared scalar code, so the
// result is operation-for-operation identical to kernels_scalar.cpp.

template <typename TermV, typename TermS>
double lane_reduce_avx2(std::int64_t n, TermV term_v, TermS term_s) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  const std::int64_t nb = n - n % kReduceLanes;
  for (std::int64_t i = 0; i < nb; i += kReduceLanes) {
    acc0 = _mm256_add_pd(acc0, term_v(i));
    acc1 = _mm256_add_pd(acc1, term_v(i + kVec));
  }
  alignas(32) double acc[kReduceLanes];
  _mm256_store_pd(acc, acc0);
  _mm256_store_pd(acc + kVec, acc1);
  for (std::int64_t l = 0; l + nb < n; ++l) acc[l] += term_s(nb + l);
  return combine_lanes(acc);
}

}  // namespace

double sum_avx2(const double* x, std::int64_t n) {
  return lane_reduce_avx2(
      n, [x](std::int64_t i) { return _mm256_loadu_pd(x + i); },
      [x](std::int64_t i) { return x[i]; });
}

double squared_norm_avx2(const double* x, std::int64_t n) {
  return lane_reduce_avx2(
      n,
      [x](std::int64_t i) {
        const __m256d v = _mm256_loadu_pd(x + i);
        return _mm256_mul_pd(v, v);
      },
      [x](std::int64_t i) { return x[i] * x[i]; });
}

double dot_avx2(const double* a, const double* b, std::int64_t n) {
  return lane_reduce_avx2(
      n,
      [a, b](std::int64_t i) {
        return _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
      },
      [a, b](std::int64_t i) { return a[i] * b[i]; });
}

double max_abs_avx2(const double* x, std::int64_t n) {
  // max is order-independent, so this needs no lane contract: strip the
  // sign bit and fold 4-wide maxima into one scalar maximum. Operand
  // order matters for NaN parity: maxpd forwards the *second* operand
  // when either is NaN, and std::max(m, term) keeps m when term is NaN,
  // so the running maximum must be the second operand to drop NaN terms
  // exactly like the scalar backend.
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d mv = _mm256_setzero_pd();
  std::int64_t i = 0;
  for (; i + kVec <= n; i += kVec) {
    mv = _mm256_max_pd(_mm256_andnot_pd(sign_mask, _mm256_loadu_pd(x + i)), mv);
  }
  alignas(32) double lanes[kVec];
  _mm256_store_pd(lanes, mv);
  double m = std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) m = std::max(m, std::abs(x[i]));
  return m;
}

double debiased_variance_sum_avx2(const double* m1, const double* m2, std::int64_t n, double inv1,
                                  double inv2) {
  const __m256d i1 = _mm256_set1_pd(inv1);
  const __m256d i2 = _mm256_set1_pd(inv2);
  return lane_reduce_avx2(
      n,
      [m1, m2, i1, i2](std::int64_t i) {
        const __m256d m = _mm256_mul_pd(_mm256_loadu_pd(m1 + i), i1);
        return _mm256_sub_pd(_mm256_mul_pd(_mm256_loadu_pd(m2 + i), i2), _mm256_mul_pd(m, m));
      },
      [m1, m2, inv1, inv2](std::int64_t i) {
        const double m = m1[i] * inv1;
        return m2[i] * inv2 - m * m;
      });
}

const KernelTable kAvx2Kernels = {
    .fill = fill_avx2,
    .copy = copy_avx2,
    .scale = scale_avx2,
    .axpy = axpy_avx2,
    .ewma = ewma_avx2,
    .ewma_moments = ewma_moments_avx2,
    .exp = exp_avx2,
    .sigmoid = sigmoid_avx2,
    .tanh = tanh_avx2,
    .momentum = momentum_avx2,
    .adam = adam_avx2,
    .adagrad = adagrad_avx2,
    .gemm_micro = gemm_micro_avx2,
    .gemm_small_nn = gemm_small_nn_avx2,
    .gemm_small_nt = gemm_small_nt_avx2,
    .gemm_small_tn = gemm_small_tn_avx2,
    .sum = sum_avx2,
    .squared_norm = squared_norm_avx2,
    .dot = dot_avx2,
    .max_abs = max_abs_avx2,
    .debiased_variance_sum = debiased_variance_sum_avx2,
};

}  // namespace yf::core::detail

#endif  // YF_KERNELS_AVX2
