// Internal kernel dispatch table shared by the scalar and AVX2 backends
// (DESIGN.md §4). Not installed with the public headers: only
// core/kernels.cpp (the span front-end), core/gemm.cpp and the backend
// translation units include this.
//
// Every entry operates on raw contiguous ranges *below* the
// parallel_for partitioning layer: the front-end validates spans, picks
// the grain, and hands each chunk to the active table. Two contracts
// make backends interchangeable bit-for-bit:
//
//  * Elementwise entries perform the exact per-element operation
//    sequence documented in core/kernels.hpp. Vector variants may
//    reorder *across* elements but never change the arithmetic of one
//    element, and they must not use fused-multiply-add (an FMA rounds
//    once where mul+add rounds twice, which would fork the trajectory).
//  * Reductions accumulate in the fixed lane-blocked order below --
//    kReduceLanes independent accumulators filled round-robin in index
//    order, combined by combine_lanes. The order is a property of the
//    *contract*, not of the ISA: the scalar backend emulates the same
//    lanes, so results are identical across backends, machines, and
//    (because reductions stay on one thread) worker counts.
#pragma once

#include <cstdint>

namespace yf::core::detail {

/// Reduction lane width. Fixed at 8 doubles (two 256-bit AVX2 vectors)
/// on every backend; changing it is a results-affecting contract change
/// that requires re-pinning the reduction tests and bench baselines.
inline constexpr std::int64_t kReduceLanes = 8;

/// Canonical lane combine: pairwise over the 8 lane accumulators.
/// acc[l] holds the sum of elements with index ≡ l (mod kReduceLanes).
inline double combine_lanes(const double* acc) {
  const double l0 = acc[0] + acc[4];
  const double l1 = acc[1] + acc[5];
  const double l2 = acc[2] + acc[6];
  const double l3 = acc[3] + acc[7];
  return (l0 + l2) + (l1 + l3);
}

struct KernelTable {
  // -- Elementwise chunk kernels. -------------------------------------------
  void (*fill)(double* x, std::int64_t n, double v);
  void (*copy)(double* dst, const double* src, std::int64_t n);
  void (*scale)(double* x, std::int64_t n, double a);
  void (*axpy)(double* y, const double* x, std::int64_t n, double a);
  void (*ewma)(double* avg, const double* x, std::int64_t n, double beta);
  void (*ewma_moments)(double* m1, double* m2, const double* x, std::int64_t n, double beta);

  // -- Fused optimizer sweeps (chunk-level). --------------------------------
  void (*momentum)(double* x, double* v, const double* g, std::int64_t n, double lr, double mu,
                   bool nesterov);
  void (*adam)(double* x, double* m, double* v, const double* g, std::int64_t n, double lr,
               double beta1, double beta2, double bc1, double bc2, double eps);
  void (*adagrad)(double* x, double* accum, const double* g, std::int64_t n, double lr,
                  double eps);
  void (*rmsprop)(double* x, double* sq, const double* g, std::int64_t n, double lr, double decay,
                  double eps);

  // -- Packed GEMM microkernel + small-matrix fast paths (gemm.cpp). --------
  void (*gemm_micro)(double* c, std::int64_t ldc, const double* ap, const double* bp,
                     std::int64_t kc, std::int64_t rows, std::int64_t cols, bool beta0);
  void (*gemm_small_nn)(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k);
  void (*gemm_small_nt)(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k);
  void (*gemm_small_tn)(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k);

  // -- Lane-blocked deterministic reductions. -------------------------------
  double (*sum)(const double* x, std::int64_t n);
  double (*squared_norm)(const double* x, std::int64_t n);
  double (*dot)(const double* a, const double* b, std::int64_t n);
  double (*max_abs)(const double* x, std::int64_t n);
  double (*debiased_variance_sum)(const double* m1, const double* m2, std::int64_t n, double inv1,
                                  double inv2);
};

extern const KernelTable kScalarKernels;
#ifdef YF_KERNELS_AVX2
extern const KernelTable kAvx2Kernels;
#endif

/// Table for the currently active backend (one relaxed atomic load).
const KernelTable& active_table();

// -- GEMM tiling constants (core/gemm.cpp panel hierarchy). ------------------
// The register tile is MR x NR = 4 x 8 (one broadcast lane times two
// 256-bit vectors); KC is the k-panel depth. All three are part of the
// canonical accumulation order below and therefore results-affecting:
// changing any of them requires re-pinning the GEMM tests and baselines.
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 8;
inline constexpr std::int64_t kGemmKC = 256;

// Cache blocking only (never results-affecting): rows per packed A block
// (multiple of MR; MC x KC doubles ~ 192 KB, comfortably L2-resident) and
// columns per packed B slab (multiple of NR; KC x NC doubles ~ 2 MB).
inline constexpr std::int64_t kGemmMC = 96;
inline constexpr std::int64_t kGemmNC = 1024;

// Canonical GEMM accumulation order -- the determinism contract every
// path (packed scalar, packed AVX2, both small fast paths) reproduces
// exactly, making results invariant to backend, matrix size bucket,
// thread count and partition:
//
//   C[i][j] = (((s_0) + s_1) + s_2) + ...          one s per KC panel
//   s_p     = sum over kk in [p*KC, min(k,(p+1)*KC)), ascending, of
//             op(A)[i][kk] * op(B)[kk][j], accumulated left-to-right
//             in one accumulator starting at 0.0
//
// The first panel *overwrites* C (beta = 0), later panels accumulate.
// No FMA anywhere: each mul and each add rounds separately, so 4-wide
// vector lanes round exactly like 4 scalars.

/// Reference MR x NR microkernel over packed panels: ap holds kc
/// MR-groups (A tile column-major within the tile), bp holds kc
/// NR-groups (B tile row-major within the tile). Writes the rows x cols
/// valid corner of the tile into c (leading dimension ldc). The AVX2
/// backend uses this exact function for edge tiles and an operation-
/// for-operation vector twin for full tiles.
inline void gemm_micro_ref(double* c, std::int64_t ldc, const double* ap, const double* bp,
                           std::int64_t kc, std::int64_t rows, std::int64_t cols, bool beta0) {
  double acc[kGemmMR][kGemmNR] = {};
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const double* a = ap + kk * kGemmMR;
    const double* b = bp + kk * kGemmNR;
    for (std::int64_t r = 0; r < kGemmMR; ++r) {
      const double ar = a[r];
      for (std::int64_t j = 0; j < kGemmNR; ++j) acc[r][j] += ar * b[j];
    }
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    double* crow = c + r * ldc;
    if (beta0) {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] = acc[r][j];
    } else {
      for (std::int64_t j = 0; j < cols; ++j) crow[j] += acc[r][j];
    }
  }
}

/// Reference small-matrix path: unpacked operands, no pool, same
/// canonical per-element order as the packed path (KC panel partial
/// sums, kk ascending). `la(i, kk)` / `lb(kk, j)` read op(A) / op(B).
template <typename LoadA, typename LoadB>
inline void gemm_small_ref(double* c, std::int64_t m, std::int64_t n, std::int64_t k, LoadA la,
                           LoadB lb) {
  for (std::int64_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      const std::int64_t ke = pc + kGemmKC < k ? pc + kGemmKC : k;
      for (std::int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::int64_t kk = pc; kk < ke; ++kk) acc += la(i, kk) * lb(kk, j);
        crow[j] = pc == 0 ? acc : crow[j] + acc;
      }
    }
  }
}

}  // namespace yf::core::detail
