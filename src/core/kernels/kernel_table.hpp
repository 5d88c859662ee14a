// Internal kernel dispatch table shared by the scalar, AVX2 and AVX-512
// backends (DESIGN.md §4). Not installed with the public headers: only
// core/kernels.cpp (the span front-end), core/gemm.cpp, the backend
// translation units, and the tests and benches that run each table
// include this.
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
//    The transcendentals (exp, sigmoid, tanh) are defined by the scalar
//    references at the bottom of this file: IEEE mul/add/sub/div, exact
//    bit operations and compares, no libm.
//  * Reductions accumulate in the fixed lane-blocked order below --
//    kReduceLanes independent accumulators filled round-robin in index
//    order, combined by combine_lanes. The order is a property of the
//    *contract*, not of the ISA: the scalar backend emulates the same
//    lanes, so results are identical across backends, machines, and
//    (because reductions stay on one thread) worker counts.
//
// The scalar helpers here (combine_lanes, the GEMM and transcendental
// references) are `static inline`: every backend TU, built with its own
// ISA flags, keeps its own copy. As plain inline functions they become
// weak symbols wherever they are not inlined (any -O0 build), and the
// linker could hand the scalar backend a copy built for AVX-512.
#pragma once

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace yf::core::detail {

/// Reduction lane width. Fixed at 8 doubles (two 256-bit AVX2 vectors)
/// on every backend; changing it is a results-affecting contract change
/// that requires re-pinning the reduction tests and bench baselines.
inline constexpr std::int64_t kReduceLanes = 8;

/// Canonical lane combine: pairwise over the 8 lane accumulators.
/// acc[l] holds the sum of elements with index ≡ l (mod kReduceLanes).
static inline double combine_lanes(const double* acc) {
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

  // -- Elementwise transcendentals: y[i] = f(x[i]); y may alias x exactly. --
  void (*exp)(double* y, const double* x, std::int64_t n);
  void (*sigmoid)(double* y, const double* x, std::int64_t n);
  void (*tanh)(double* y, const double* x, std::int64_t n);

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
                        std::int64_t n, std::int64_t k, bool accumulate);
  void (*gemm_small_nt)(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k, bool accumulate);
  void (*gemm_small_tn)(double* c, const double* a, const double* b, std::int64_t m,
                        std::int64_t n, std::int64_t k, bool accumulate);

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
#ifdef YF_KERNELS_AVX512
extern const KernelTable kAvx512Kernels;
#endif

struct NamedKernelTable {
  const char* name;  ///< "scalar", "avx2" or "avx512"
  const KernelTable* table;
};

/// Every table this build carries that the running CPU can execute,
/// scalar first and the widest last (core/kernels/backend.cpp). Tests pin
/// each against scalar and benches time each, so the AVX2 table stays
/// covered on hosts where `simd` resolves to AVX-512.
std::vector<NamedKernelTable> runnable_tables();

/// The active backend's table (core/kernels/backend.cpp); null until the
/// first active_table() call resolves YF_KERNEL_BACKEND.
extern std::atomic<const KernelTable*> g_active_table;
/// Slow path of active_table(): resolves and publishes the initial backend.
const KernelTable& resolve_active_table();

/// Table for the currently active backend: one relaxed atomic load.
inline const KernelTable& active_table() {
  const KernelTable* table = g_active_table.load(std::memory_order_relaxed);
  return table != nullptr ? *table : resolve_active_table();
}

/// Test/bench hook: makes `table` (one of runnable_tables()) the active
/// table for the scope's lifetime, then restores the previous one.
class ActiveTableScope {
 public:
  explicit ActiveTableScope(const KernelTable& table) : previous_(&active_table()) {
    g_active_table.store(&table, std::memory_order_relaxed);
  }
  ~ActiveTableScope() { g_active_table.store(previous_, std::memory_order_relaxed); }
  ActiveTableScope(const ActiveTableScope&) = delete;
  ActiveTableScope& operator=(const ActiveTableScope&) = delete;

 private:
  const KernelTable* previous_;
};

// -- GEMM tiling constants (core/gemm.cpp panel hierarchy). ------------------
// The packed register tile is MR x NR = 4 x 8 (one broadcast lane times
// two 256-bit vectors); KC is the k-panel depth. Only KC is part of the
// canonical accumulation order below and therefore results-affecting:
// changing it requires re-pinning the GEMM tests and baselines. MR and NR
// fix the packed layout and register blocking, like the AVX-512 small
// kernels' 8 x 16 tiles, and no tile shape changes any element's sum.
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 8;
inline constexpr std::int64_t kGemmKC = 256;

// Cache blocking only (never results-affecting): rows per packed A block
// (multiple of MR; MC x KC doubles ~ 192 KB, comfortably L2-resident) and
// columns per packed B slab (multiple of NR; KC x NC doubles ~ 2 MB).
inline constexpr std::int64_t kGemmMC = 96;
inline constexpr std::int64_t kGemmNC = 1024;

// Canonical GEMM accumulation order -- the determinism contract every
// path (packed and small, on every backend) reproduces exactly, making
// results invariant to backend, tile shape, matrix size bucket, thread
// count and partition:
//
//   C[i][j] = (((s_0) + s_1) + s_2) + ...          one s per KC panel
//   s_p     = sum over kk in [p*KC, min(k,(p+1)*KC)), ascending, of
//             op(A)[i][kk] * op(B)[kk][j], accumulated left-to-right
//             in one accumulator starting at 0.0
//
// The first panel *overwrites* C (beta = 0), later panels accumulate.
// In the accumulate form (C += op(A)·op(B), `accumulate` below) the first
// panel adds too, so C ends as ((C + s_0) + s_1) + ...; the driver runs it
// only when there is one panel (core/gemm.hpp).
// No FMA anywhere: each mul and each add rounds separately, so 4- and
// 8-wide vector lanes round exactly like 4 or 8 scalars.

/// Reference MR x NR microkernel over packed panels: ap holds kc
/// MR-groups (A tile column-major within the tile), bp holds kc
/// NR-groups (B tile row-major within the tile). Writes the rows x cols
/// valid corner of the tile into c (leading dimension ldc). The AVX2
/// backend uses this exact function for edge tiles and an operation-
/// for-operation vector twin for full tiles.
static inline void gemm_micro_ref(double* c, std::int64_t ldc, const double* ap,
                                  const double* bp, std::int64_t kc, std::int64_t rows,
                                  std::int64_t cols, bool beta0) {
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
/// With `accumulate` the first panel adds into C as well.
template <typename LoadA, typename LoadB>
static inline void gemm_small_ref(double* c, std::int64_t m, std::int64_t n, std::int64_t k,
                                  LoadA la, LoadB lb, bool accumulate) {
  for (std::int64_t i = 0; i < m; ++i) {
    double* crow = c + i * n;
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      const std::int64_t ke = pc + kGemmKC < k ? pc + kGemmKC : k;
      const bool beta0 = pc == 0 && !accumulate;
      for (std::int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::int64_t kk = pc; kk < ke; ++kk) acc += la(i, kk) * lb(kk, j);
        crow[j] = beta0 ? acc : crow[j] + acc;
      }
    }
  }
}

// -- Transcendentals: exp, sigmoid, tanh. ------------------------------------
// Each scalar reference below IS the function: the scalar backend loops
// it, and the SIMD backends run its fast path operation for operation on
// blocks of two independent vector chains (8 elements on AVX2, 16 on
// AVX-512). A block holding a NaN or an argument outside the fast range
// goes through the reference instead, like GEMM's edge tiles. Only IEEE
// mul/add/sub/div, exact bit operations and compares appear, with no FMA
// and no libm, so results are identical across backends and hosts.
// Accuracy against glibc (pinned by core_kernels_test): exp within 1 ulp,
// sigmoid and tanh within 2 ulp.

/// exp's fast range: for |x| <= 708, k = round(x*log2e) lies in
/// [-1021, 1021], so 2^k is a normal double built from exponent bits.
inline constexpr double kExpFastLimit = 708.0;
/// Largest x with a finite exp(x) (the double nearest ln(DBL_MAX)).
inline constexpr double kExpOverflow = 0x1.62e42fefa39efp+9;
/// Below this exp(x) < 2^-1076, which rounds to +0.
inline constexpr double kExpUnderflow = -746.0;
/// tanh(x) rounds to +-1 for |x| > 19.1; 22 leaves margin.
inline constexpr double kTanhOneLimit = 22.0;
/// tanh's rational branch covers |x| < 0.625 (Cephes tanh.c).
inline constexpr double kTanhRationalLimit = 0.625;

inline constexpr double kLog2e = 0x1.71547652b82fep+0;
/// Adding 1.5*2^52 rounds to an integer and leaves it in the low mantissa bits.
inline constexpr double kExpShifter = 0x1.8p52;
/// ln2 split so k*kLn2Hi is exact for |k| < 2^20 (fdlibm's split).
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
/// Taylor coefficients 1/13!, 1/12!, ..., 1/1!, 1/0! in Horner order:
/// |r| <= ln2/2 makes the truncation error below 2^-57.
inline constexpr double kExpTaylor[14] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0, 1.0 / 3628800.0,
    1.0 / 362880.0,     1.0 / 40320.0,     1.0 / 5040.0,     1.0 / 720.0,
    1.0 / 120.0,        1.0 / 24.0,        1.0 / 6.0,        0.5,
    1.0,                1.0};
/// Cephes tanh: tanh(x) = x + x*z*P(z)/Q(z), z = x^2, with Q monic.
inline constexpr double kTanhP[3] = {-9.64399179425052238628e-1, -9.92877231001918586564e1,
                                     -1.61468768441708447952e3};
inline constexpr double kTanhQ[3] = {1.12811678491632931402e2, 2.23548839060100448583e3,
                                     4.84406305325125486048e3};
inline constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
inline constexpr std::uint64_t kExponentBias = 1023;
/// Outside the fast range exp applies 2^k as 2^(k -+ 64) * 2^(+-64).
inline constexpr std::uint64_t kExpScaleShift = 64;

/// exp's reduction and polynomial: x = k*ln2 + r with k = round(x*log2e),
/// then e^r. Returns e^r; `kbits` receives the bits of k + 1.5*2^52, whose
/// low 12 bits hold k in two's complement.
static inline double exp_reduce(double x, std::uint64_t& kbits) {
  const double t = x * kLog2e + kExpShifter;
  const double k = t - kExpShifter;
  const double r = (x - k * kLn2Hi) - k * kLn2Lo;
  double p = kExpTaylor[0];
  for (int i = 1; i < 14; ++i) p = p * r + kExpTaylor[i];
  kbits = std::bit_cast<std::uint64_t>(t);
  return p;
}

/// 2^(k + bias - 1023) from exp_reduce's kbits: the unsigned shift keeps
/// only the low 12 bits of k + bias, which become the exponent field.
static inline double exp_pow2(std::uint64_t kbits, std::uint64_t bias) {
  return std::bit_cast<double>((kbits + bias) << 52);
}

static inline double exp_ref(double x) {
  std::uint64_t kbits = 0;
  if (std::abs(x) <= kExpFastLimit) {
    const double p = exp_reduce(x, kbits);
    return p * exp_pow2(kbits, kExponentBias);
  }
  if (x != x) return x + x;  // NaN
  if (x > kExpOverflow) return std::numeric_limits<double>::infinity();
  if (x < kExpUnderflow) return 0.0;
  // 2^k leaves the normal range: scale by 2^(k -+ 64) exactly, then round
  // once into the subnormals (or to infinity) with the final 2^(+-64).
  const double p = exp_reduce(x, kbits);
  if (x > 0.0) return (p * exp_pow2(kbits, kExponentBias - kExpScaleShift)) * 0x1p64;
  return (p * exp_pow2(kbits, kExponentBias + kExpScaleShift)) * 0x1p-64;
}

static inline double sigmoid_ref(double x) { return 1.0 / (1.0 + exp_ref(-x)); }

/// tanh on |x| with the sign bit of x OR-ed back, so tanh(-x) == -tanh(x)
/// bitwise and tanh(-0) == -0.
static inline double tanh_ref(double x) {
  if (x != x) return x + x;  // NaN
  const std::uint64_t sign = std::bit_cast<std::uint64_t>(x) & kSignBit;
  const double a = std::abs(x);
  double t = 1.0;  // |x| > kTanhOneLimit
  if (a < kTanhRationalLimit) {
    const double z = a * a;
    const double pz = (kTanhP[0] * z + kTanhP[1]) * z + kTanhP[2];
    const double qz = ((z + kTanhQ[0]) * z + kTanhQ[1]) * z + kTanhQ[2];
    t = a + (a * z) * (pz / qz);
  } else if (a <= kTanhOneLimit) {
    std::uint64_t kbits = 0;
    const double p = exp_reduce(a + a, kbits);
    t = 1.0 - 2.0 / (p * exp_pow2(kbits, kExponentBias) + 1.0);
  }
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(t) | sign);
}

}  // namespace yf::core::detail
