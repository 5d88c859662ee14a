// AVX-512 kernel backend (DESIGN.md §4, §9). This translation unit is the
// only one compiled with -mavx512f -mavx512dq (CMakeLists.txt adds the
// flags when the compiler accepts them and defines YF_KERNELS_AVX512 for
// the target); backend.cpp selects its table only when cpuid reports both
// features and the OS saves zmm state, so no zmm instruction runs on a
// machine that lacks them.
//
// The table overrides six entries, the three small GEMMs and exp,
// sigmoid and tanh, each of which measured faster than its AVX2 twin at
// the workloads' shapes (BM_Table* in bench/micro_gemm.cpp and
// bench/micro_kernels.cpp). Every other entry is the AVX2 function itself
// (kernels_avx2.hpp).
// Bit-identity follows the AVX2 backend's rules (kernel_table.hpp): each
// C element sums kk in ascending order from 0.0 within a KC panel, the
// transcendentals run the scalar references' fast paths operation for
// operation, and nothing is an FMA, so 8 lanes round like 8 scalars.
// Masked lanes replace the AVX2 backend's scalar column and element tails.
#ifdef YF_KERNELS_AVX512

#include <immintrin.h>

#include <algorithm>
#include <type_traits>

#include "core/kernels/kernel_table.hpp"
#include "core/kernels/kernels_avx2.hpp"

namespace yf::core::detail {

namespace {

constexpr std::int64_t kZmm = 8;  // doubles per 512-bit vector

/// Mask of lanes [0, count) of one vector: none for count <= 0, all for
/// count >= 8.
__mmask8 first_lanes(std::int64_t count) {
  if (count <= 0) return 0;
  if (count >= kZmm) return 0xFF;
  return static_cast<__mmask8>((1u << count) - 1);
}

// -- Small NN/TN GEMM. --------------------------------------------------------
// C tiles of R <= 8 rows by V <= 2 vectors (16 columns): at most 16 zmm
// accumulators, one C element per lane. Per kk the tile loads V vectors of
// the B row in place and broadcasts one A element per row, so each lane
// adds its products in kk order from 0.0, as gemm_small_ref does. Column
// edges load and store through lane masks; masked-off lanes read as 0.0
// and are never stored. Rows run in 8-row tiles plus one joint tile for
// the m % 8 remainder.

constexpr int kTileRows = 8;
constexpr std::int64_t kStrip = 2 * kZmm;  // columns per tile
constexpr std::int64_t kPrefetchMinCols = 128;
constexpr std::int64_t kPrefetchRows = 8;

/// One tile row's V accumulators (columns j .. j + 8V of row i).
template <int V>
struct TileRow {
  __m512d acc[V];

  void madd(__m512d a, const __m512d (&b)[V]) {
    for (int v = 0; v < V; ++v) acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(a, b[v]));
  }

  void store(double* crow, bool beta0, const __mmask8 (&mask)[V]) const {
    for (int v = 0; v < V; ++v) {
      double* cp = crow + v * kZmm;
      const __m512d out =
          beta0 ? acc[v] : _mm512_add_pd(_mm512_maskz_loadu_pd(mask[v], cp), acc[v]);
      _mm512_mask_storeu_pd(cp, mask[v], out);
    }
  }
};

template <int R, int V, typename LoadA>
void rowmajor_b_tile(double* c, const double* b, std::int64_t n, std::int64_t i, std::int64_t j,
                     std::int64_t pc, std::int64_t ke, bool beta0, const __mmask8 (&mask)[V],
                     LoadA la) {
  static_assert(R >= 1 && R <= kTileRows);
  // One named object per row rather than an [R][V] array: gcc keeps an
  // aggregate that large in memory, spilling every accumulator each kk.
  TileRow<V> r0{}, r1{}, r2{}, r3{}, r4{}, r5{}, r6{}, r7{};
  for (std::int64_t kk = pc; kk < ke; ++kk) {
    const double* brow = b + kk * n + j;
    // Rows of a wide B lie 1 KB or more apart, so the strip walk crosses a
    // page every few kk, which the L2 streamer cannot follow: fetch the
    // strip's lines 8 rows ahead. (The AVX2 kernel's 16 rows let a
    // power-of-two n evict its own prefetches from their L1 sets.) Narrow
    // B needs none, and prefetching past its end costs time. Prefetch
    // never changes results.
    if (n >= kPrefetchMinCols) {
      const char* ahead = reinterpret_cast<const char*>(brow + kPrefetchRows * n);
      _mm_prefetch(ahead, _MM_HINT_T0);
      _mm_prefetch(ahead + 64, _MM_HINT_T0);
      _mm_prefetch(ahead + 8 * (kStrip - 1), _MM_HINT_T0);
    }
    __m512d bv[V];
    for (int v = 0; v < V; ++v) bv[v] = _mm512_maskz_loadu_pd(mask[v], brow + v * kZmm);
    r0.madd(_mm512_set1_pd(la(i, kk)), bv);
    if constexpr (R > 1) r1.madd(_mm512_set1_pd(la(i + 1, kk)), bv);
    if constexpr (R > 2) r2.madd(_mm512_set1_pd(la(i + 2, kk)), bv);
    if constexpr (R > 3) r3.madd(_mm512_set1_pd(la(i + 3, kk)), bv);
    if constexpr (R > 4) r4.madd(_mm512_set1_pd(la(i + 4, kk)), bv);
    if constexpr (R > 5) r5.madd(_mm512_set1_pd(la(i + 5, kk)), bv);
    if constexpr (R > 6) r6.madd(_mm512_set1_pd(la(i + 6, kk)), bv);
    if constexpr (R > 7) r7.madd(_mm512_set1_pd(la(i + 7, kk)), bv);
  }
  double* crow = c + i * n + j;
  r0.store(crow, beta0, mask);
  if constexpr (R > 1) r1.store(crow + n, beta0, mask);
  if constexpr (R > 2) r2.store(crow + 2 * n, beta0, mask);
  if constexpr (R > 3) r3.store(crow + 3 * n, beta0, mask);
  if constexpr (R > 4) r4.store(crow + 4 * n, beta0, mask);
  if constexpr (R > 5) r5.store(crow + 5 * n, beta0, mask);
  if constexpr (R > 6) r6.store(crow + 6 * n, beta0, mask);
  if constexpr (R > 7) r7.store(crow + 7 * n, beta0, mask);
}

/// Calls tile(std::integral_constant<int, rows>{}) for 0 < rows < 8: the
/// joint tile for the m % 8 remainder, whose row count must be a template
/// constant so its accumulators stay in registers.
template <int R = kTileRows - 1, typename Tile>
void remainder_rows(std::int64_t rows, Tile tile) {
  if constexpr (R > 0) {
    if (rows == R) {
      tile(std::integral_constant<int, R>{});
    } else {
      remainder_rows<R - 1>(rows, tile);
    }
  }
}

template <int V, typename LoadA>
void rowmajor_b_strip(double* c, const double* b, std::int64_t m, std::int64_t n, std::int64_t j,
                      std::int64_t pc, std::int64_t ke, bool beta0, const __mmask8 (&mask)[V],
                      LoadA la) {
  std::int64_t i = 0;
  for (; i + kTileRows <= m; i += kTileRows) {
    rowmajor_b_tile<kTileRows, V>(c, b, n, i, j, pc, ke, beta0, mask, la);
  }
  remainder_rows(m - i, [&](auto rows) {
    rowmajor_b_tile<decltype(rows)::value, V>(c, b, n, i, j, pc, ke, beta0, mask, la);
  });
}

/// Column strip outermost, row tiles inner: every tile after the first
/// re-reads the strip's kc x 16 block of B while it is L1-resident.
template <typename LoadA>
void gemm_small_rowmajor_b_avx512(double* c, const double* b, std::int64_t m, std::int64_t n,
                                  std::int64_t k, bool accumulate, LoadA la) {
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t ke = std::min(k, pc + kGemmKC);
    const bool beta0 = pc == 0 && !accumulate;
    for (std::int64_t j = 0; j < n; j += kStrip) {
      const std::int64_t cols = std::min(kStrip, n - j);
      if (cols > kZmm) {
        const __mmask8 mask[2] = {0xFF, first_lanes(cols - kZmm)};
        rowmajor_b_strip<2>(c, b, m, n, j, pc, ke, beta0, mask, la);
      } else {
        const __mmask8 mask[1] = {first_lanes(cols)};
        rowmajor_b_strip<1>(c, b, m, n, j, pc, ke, beta0, mask, la);
      }
    }
  }
}

void gemm_small_nn_avx512(double* c, const double* a, const double* b, std::int64_t m,
                          std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_small_rowmajor_b_avx512(c, b, m, n, k, accumulate, [a, k](std::int64_t i, std::int64_t kk) {
    return a[i * k + kk];
  });
}

void gemm_small_tn_avx512(double* c, const double* a, const double* b, std::int64_t m,
                          std::int64_t n, std::int64_t k, bool accumulate) {
  gemm_small_rowmajor_b_avx512(c, b, m, n, k, accumulate, [a, m](std::int64_t i, std::int64_t kk) {
    return a[kk * m + i];
  });
}

// -- Small NT GEMM. ---------------------------------------------------------
// C tiles of R <= 8 rows by 8 columns, one C element per lane as above.
// op(B) columns are rows of B, so eight B rows are loaded eight kk at a
// time and each 8x8 block is transposed in registers: btq then holds
// op(B)[kk+q][j..j+7], and every lane still adds its products in kk order.
// A group of fewer than 8 columns reads its last B row again for the
// missing ones, whose lanes are never stored. The k % 8 tail gathers its
// column vector element by element.

/// In-register transpose: on return x[q] holds column q of the 8x8 block
/// whose rows were x[0..7].
void transpose8x8(__m512d& x0, __m512d& x1, __m512d& x2, __m512d& x3, __m512d& x4, __m512d& x5,
                  __m512d& x6, __m512d& x7) {
  // All-lanes maskz forms, as in exp_fast_avx512: gcc 12's plain unpacks
  // and shuffles trip -Wmaybe-uninitialized on their undefined pass-through.
  const auto lo = [](__m512d p, __m512d q) { return _mm512_maskz_unpacklo_pd(0xFF, p, q); };
  const auto hi = [](__m512d p, __m512d q) { return _mm512_maskz_unpackhi_pd(0xFF, p, q); };
  // 128-bit lane pairs: even(p, q) = p.L0 p.L2 q.L0 q.L2, odd = p.L1 p.L3 q.L1 q.L3.
  const auto even = [](__m512d p, __m512d q) {
    return _mm512_maskz_shuffle_f64x2(0xFF, p, q, _MM_SHUFFLE(2, 0, 2, 0));
  };
  const auto odd = [](__m512d p, __m512d q) {
    return _mm512_maskz_shuffle_f64x2(0xFF, p, q, _MM_SHUFFLE(3, 1, 3, 1));
  };
  // Row pairs interleaved: t0 = r0[0] r1[0] r0[2] r1[2] ... r0[6] r1[6].
  const __m512d t0 = lo(x0, x1), t1 = hi(x0, x1), t2 = lo(x2, x3), t3 = hi(x2, x3);
  const __m512d t4 = lo(x4, x5), t5 = hi(x4, x5), t6 = lo(x6, x7), t7 = hi(x6, x7);
  // Quads: u0 = r0[0] r1[0] r0[4] r1[4] r2[0] r3[0] r2[4] r3[4].
  const __m512d u0 = even(t0, t2), u1 = even(t1, t3), u2 = odd(t0, t2), u3 = odd(t1, t3);
  const __m512d u4 = even(t4, t6), u5 = even(t5, t7), u6 = odd(t4, t6), u7 = odd(t5, t7);
  x0 = even(u0, u4);
  x1 = even(u1, u5);
  x2 = even(u2, u6);
  x3 = even(u3, u7);
  x4 = odd(u0, u4);
  x5 = odd(u1, u5);
  x6 = odd(u2, u6);
  x7 = odd(u3, u7);
}

template <int R>
void nt_tile(double* c, const double* a, const double* b, std::int64_t n, std::int64_t k,
             std::int64_t i, std::int64_t j, std::int64_t pc, std::int64_t ke, bool beta0,
             const __mmask8 (&mask)[1]) {
  static_assert(R >= 1 && R <= kTileRows);
  const std::int64_t last = std::min(n - j, kZmm) - 1;
  const double* b0 = b + j * k;
  const double* b1 = b + (j + std::min<std::int64_t>(1, last)) * k;
  const double* b2 = b + (j + std::min<std::int64_t>(2, last)) * k;
  const double* b3 = b + (j + std::min<std::int64_t>(3, last)) * k;
  const double* b4 = b + (j + std::min<std::int64_t>(4, last)) * k;
  const double* b5 = b + (j + std::min<std::int64_t>(5, last)) * k;
  const double* b6 = b + (j + std::min<std::int64_t>(6, last)) * k;
  const double* b7 = b + (j + std::min<std::int64_t>(7, last)) * k;
  const double* arow = a + i * k;
  TileRow<1> r0{}, r1{}, r2{}, r3{}, r4{}, r5{}, r6{}, r7{};
  const auto madd = [&](std::int64_t kk, __m512d bt) {
    const __m512d bv[1] = {bt};
    r0.madd(_mm512_set1_pd(arow[kk]), bv);
    if constexpr (R > 1) r1.madd(_mm512_set1_pd(arow[k + kk]), bv);
    if constexpr (R > 2) r2.madd(_mm512_set1_pd(arow[2 * k + kk]), bv);
    if constexpr (R > 3) r3.madd(_mm512_set1_pd(arow[3 * k + kk]), bv);
    if constexpr (R > 4) r4.madd(_mm512_set1_pd(arow[4 * k + kk]), bv);
    if constexpr (R > 5) r5.madd(_mm512_set1_pd(arow[5 * k + kk]), bv);
    if constexpr (R > 6) r6.madd(_mm512_set1_pd(arow[6 * k + kk]), bv);
    if constexpr (R > 7) r7.madd(_mm512_set1_pd(arow[7 * k + kk]), bv);
  };
  std::int64_t kk = pc;
  for (; kk + kZmm <= ke; kk += kZmm) {
    __m512d x0 = _mm512_loadu_pd(b0 + kk), x1 = _mm512_loadu_pd(b1 + kk);
    __m512d x2 = _mm512_loadu_pd(b2 + kk), x3 = _mm512_loadu_pd(b3 + kk);
    __m512d x4 = _mm512_loadu_pd(b4 + kk), x5 = _mm512_loadu_pd(b5 + kk);
    __m512d x6 = _mm512_loadu_pd(b6 + kk), x7 = _mm512_loadu_pd(b7 + kk);
    transpose8x8(x0, x1, x2, x3, x4, x5, x6, x7);
    madd(kk, x0);
    madd(kk + 1, x1);
    madd(kk + 2, x2);
    madd(kk + 3, x3);
    madd(kk + 4, x4);
    madd(kk + 5, x5);
    madd(kk + 6, x6);
    madd(kk + 7, x7);
  }
  for (; kk < ke; ++kk) {
    madd(kk, _mm512_set_pd(b7[kk], b6[kk], b5[kk], b4[kk], b3[kk], b2[kk], b1[kk], b0[kk]));
  }
  double* crow = c + i * n + j;
  r0.store(crow, beta0, mask);
  if constexpr (R > 1) r1.store(crow + n, beta0, mask);
  if constexpr (R > 2) r2.store(crow + 2 * n, beta0, mask);
  if constexpr (R > 3) r3.store(crow + 3 * n, beta0, mask);
  if constexpr (R > 4) r4.store(crow + 4 * n, beta0, mask);
  if constexpr (R > 5) r5.store(crow + 5 * n, beta0, mask);
  if constexpr (R > 6) r6.store(crow + 6 * n, beta0, mask);
  if constexpr (R > 7) r7.store(crow + 7 * n, beta0, mask);
}

/// 8-column groups outermost, so the eight B rows a group transposes stay
/// L1-resident across its row tiles.
void gemm_small_nt_avx512(double* c, const double* a, const double* b, std::int64_t m,
                          std::int64_t n, std::int64_t k, bool accumulate) {
  for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
    const std::int64_t ke = std::min(k, pc + kGemmKC);
    const bool beta0 = pc == 0 && !accumulate;
    for (std::int64_t j = 0; j < n; j += kZmm) {
      const __mmask8 mask[1] = {first_lanes(n - j)};
      std::int64_t i = 0;
      for (; i + kTileRows <= m; i += kTileRows) {
        nt_tile<kTileRows>(c, a, b, n, k, i, j, pc, ke, beta0, mask);
      }
      remainder_rows(m - i, [&](auto rows) {
        nt_tile<decltype(rows)::value>(c, a, b, n, k, i, j, pc, ke, beta0, mask);
      });
    }
  }
}

// -- Transcendentals. --------------------------------------------------------
// The fast paths of exp_ref / sigmoid_ref / tanh_ref (kernel_table.hpp),
// operation for operation on 8 lanes.

__m512d exp_fast_avx512(__m512d x) {
  const __m512d shifter = _mm512_set1_pd(kExpShifter);
  const __m512d t = _mm512_add_pd(_mm512_mul_pd(x, _mm512_set1_pd(kLog2e)), shifter);
  const __m512d k = _mm512_sub_pd(t, shifter);
  const __m512d r = _mm512_sub_pd(_mm512_sub_pd(x, _mm512_mul_pd(k, _mm512_set1_pd(kLn2Hi))),
                                  _mm512_mul_pd(k, _mm512_set1_pd(kLn2Lo)));
  __m512d p = _mm512_set1_pd(kExpTaylor[0]);
  for (int i = 1; i < 14; ++i) {
    p = _mm512_add_pd(_mm512_mul_pd(p, r), _mm512_set1_pd(kExpTaylor[i]));
  }
  const __m512i biased = _mm512_add_epi64(
      _mm512_castpd_si512(t), _mm512_set1_epi64(static_cast<long long>(kExponentBias)));
  // The all-lanes maskz form shifts exactly like _mm512_slli_epi64, whose
  // gcc 12 definition trips -Wuninitialized on its undefined pass-through
  // (the maskz forms pass zeros instead).
  return _mm512_mul_pd(p, _mm512_castsi512_pd(_mm512_maskz_slli_epi64(0xFF, biased, 52)));
}

__m512d sigmoid_fast_avx512(__m512d x) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d e = exp_fast_avx512(_mm512_xor_pd(x, _mm512_set1_pd(-0.0)));
  return _mm512_div_pd(one, _mm512_add_pd(one, e));
}

__m512d tanh_rational_avx512(__m512d a) {
  const __m512d z = _mm512_mul_pd(a, a);
  __m512d pz =
      _mm512_add_pd(_mm512_mul_pd(_mm512_set1_pd(kTanhP[0]), z), _mm512_set1_pd(kTanhP[1]));
  pz = _mm512_add_pd(_mm512_mul_pd(pz, z), _mm512_set1_pd(kTanhP[2]));
  __m512d qz = _mm512_add_pd(z, _mm512_set1_pd(kTanhQ[0]));
  qz = _mm512_add_pd(_mm512_mul_pd(qz, z), _mm512_set1_pd(kTanhQ[1]));
  qz = _mm512_add_pd(_mm512_mul_pd(qz, z), _mm512_set1_pd(kTanhQ[2]));
  return _mm512_add_pd(a, _mm512_mul_pd(_mm512_mul_pd(a, z), _mm512_div_pd(pz, qz)));
}

__m512d tanh_exp_avx512(__m512d a) {
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d e = exp_fast_avx512(_mm512_add_pd(a, a));
  return _mm512_sub_pd(one, _mm512_div_pd(_mm512_set1_pd(2.0), _mm512_add_pd(e, one)));
}

__m512d tanh_fast_avx512(__m512d x) {
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m512d a = _mm512_andnot_pd(sign, x);
  const __mmask8 small = _mm512_cmp_pd_mask(a, _mm512_set1_pd(kTanhRationalLimit), _CMP_LT_OQ);
  // Both branches are exact per lane, so the blend picks tanh_ref's result.
  const __m512d t = _mm512_mask_blend_pd(small, tanh_exp_avx512(a), tanh_rational_avx512(a));
  return _mm512_or_pd(t, _mm512_and_pd(x, sign));
}

/// y = fast(x) on each 16-element block whose lanes all satisfy
/// |x| <= limit, as two independent 8-lane chains, and y = ref(x) element
/// by element on every other block, NaN included (it fails the compare).
/// The n % 16 tail is one masked block whose unused lanes read as 0.0.
/// Both vectors are loaded before either is stored, so y may alias x.
template <typename Fast, typename Ref>
void transcendental_avx512(double* y, const double* x, std::int64_t n, double limit, Fast fast,
                           Ref ref) {
  const __m512d lim = _mm512_set1_pd(limit);
  for (std::int64_t i = 0; i < n; i += 2 * kZmm) {
    const __mmask8 m0 = first_lanes(n - i);
    const __mmask8 m1 = first_lanes(n - i - kZmm);
    // A fully masked load reads nothing, but its address stays in the array.
    const std::int64_t i1 = std::min(i + kZmm, n);
    const __m512d x0 = _mm512_maskz_loadu_pd(m0, x + i);
    const __m512d x1 = _mm512_maskz_loadu_pd(m1, x + i1);
    const __mmask8 in0 = _mm512_cmp_pd_mask(_mm512_abs_pd(x0), lim, _CMP_LE_OQ);
    const __mmask8 in1 = _mm512_cmp_pd_mask(_mm512_abs_pd(x1), lim, _CMP_LE_OQ);
    if ((in0 & in1) != 0xFF) {
      const std::int64_t end = std::min(n, i + 2 * kZmm);
      for (std::int64_t e = i; e < end; ++e) y[e] = ref(x[e]);
      continue;
    }
    const __m512d y0 = fast(x0);
    const __m512d y1 = fast(x1);
    _mm512_mask_storeu_pd(y + i, m0, y0);
    _mm512_mask_storeu_pd(y + i1, m1, y1);
  }
}

void exp_avx512(double* y, const double* x, std::int64_t n) {
  transcendental_avx512(
      y, x, n, kExpFastLimit, [](__m512d v) { return exp_fast_avx512(v); }, exp_ref);
}

void sigmoid_avx512(double* y, const double* x, std::int64_t n) {
  transcendental_avx512(
      y, x, n, kExpFastLimit, [](__m512d v) { return sigmoid_fast_avx512(v); }, sigmoid_ref);
}

void tanh_avx512(double* y, const double* x, std::int64_t n) {
  transcendental_avx512(
      y, x, n, kTanhOneLimit, [](__m512d v) { return tanh_fast_avx512(v); }, tanh_ref);
}

}  // namespace

const KernelTable kAvx512Kernels = {
    .fill = fill_avx2,
    .copy = copy_avx2,
    .scale = scale_avx2,
    .axpy = axpy_avx2,
    .ewma = ewma_avx2,
    .ewma_moments = ewma_moments_avx2,
    .exp = exp_avx512,
    .sigmoid = sigmoid_avx512,
    .tanh = tanh_avx512,
    .momentum = momentum_avx2,
    .adam = adam_avx2,
    .adagrad = adagrad_avx2,
    .rmsprop = rmsprop_avx2,
    .gemm_micro = gemm_micro_avx2,
    .gemm_small_nn = gemm_small_nn_avx512,
    .gemm_small_nt = gemm_small_nt_avx512,
    .gemm_small_tn = gemm_small_tn_avx512,
    .sum = sum_avx2,
    .squared_norm = squared_norm_avx2,
    .dot = dot_avx2,
    .max_abs = max_abs_avx2,
    .debiased_variance_sum = debiased_variance_sum_avx2,
};

}  // namespace yf::core::detail

#endif  // YF_KERNELS_AVX512
