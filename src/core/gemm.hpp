// Packed, cache-blocked, register-tiled double GEMM (DESIGN.md §9).
//
// One driver serves three layouts -- the packing step absorbs the
// transpose, so no caller ever materializes a transposed operand:
//
//   kNN:  C[m,n] = A[m,k]  · B[k,n]
//   kNT:  C[m,n] = A[m,k]  · B[n,k]ᵀ   (autograd dA, tied-embedding decode)
//   kTN:  C[m,n] = A[k,m]ᵀ · B[k,n]    (autograd dB, conv dW)
//
// gemm() *overwrites* C (beta = 0 on the first k-panel), so a dirty
// reused output tensor needs no separate zeroing pass; its accumulate
// form adds the product into C instead, which is how the autograd
// pullbacks add into gradients without a product scratch. Above a flops
// threshold the driver runs the BLIS-style panel hierarchy -- NC column
// slabs of packed B, KC k-panels, MC row blocks of packed A, an MR x NR
// register-tiled microkernel -- parallelized over row blocks on the
// process pool with a flops-aware grain. Below the threshold it runs an
// unpacked single-thread fast path. Both paths, on every kernel table
// (scalar, AVX2, AVX-512), accumulate every element in the canonical
// KC-panel order defined in core/kernels/kernel_table.hpp: only KC and
// the kk-ascending per-element sum fix results, not the register tile
// (4 x 8 packed, up to 8 x 16 in the AVX-512 small kernels). Results are
// therefore bit-identical across tables and invariant to tile shape,
// size bucket, thread count, and partition. Packing buffers come from a per-thread core::Workspace
// (high-water-mark reuse): after a warm-up call of each peak shape, a
// steady-state GEMM performs zero heap allocations.
#pragma once

#include <cstdint>

namespace yf::core {

enum class GemmVariant {
  kNN,  ///< C = A · B        A is m x k, B is k x n
  kNT,  ///< C = A · Bᵀ       A is m x k, B is n x k
  kTN,  ///< C = Aᵀ · B       A is k x m, B is k x n
};

/// C (m x n, row-major, fully overwritten) = op(A) · op(B). Aliasing
/// between c and a/b is not allowed. k == 0 zeroes C.
///
/// With `accumulate`, C += op(A) · op(B) instead, bit-identical to the
/// product into a scratch matrix followed by an add into C. For
/// 1 <= k <= KC (one k-panel) the panel sum s_0 is added straight into C,
/// which is that same C + s_0. A longer k would give ((C + s_0) + s_1),
/// not C + (s_0 + s_1), so it still forms the product in per-thread
/// workspace scratch and adds it after (DESIGN.md §9).
void gemm(GemmVariant variant, double* c, const double* a, const double* b, std::int64_t m,
          std::int64_t n, std::int64_t k, bool accumulate = false);

namespace detail {

/// m*n*k (in multiply-add pairs) at or below which gemm() takes the
/// unpacked, pool-free fast path. Pinned with bench/micro_gemm.cpp
/// (BM_Gemm{Packed,Small}Forced cubes, 1-core CI-class Icelake): the
/// small path wins through 48^3 (simd 8.5us vs 9.3us; scalar 32us vs
/// 34us) and the packed hierarchy ties it at 64^3 (21.6us vs 21.3us
/// simd) before pulling ahead asymptotically (13.4 vs ~8 G items/s at
/// 256^3), so the crossover sits between 48^3 and 64^3. Below it,
/// packing plus grain bookkeeping is pure overhead for shapes like the
/// simulator's eigen_small products and 1-row LM decode matmuls.
inline constexpr std::int64_t kGemmSmallWork = 48 * 48 * 48;

/// Row count at or below which the NN/TN layouts take the small path
/// regardless of total flops. A packed B slab is written and re-read
/// once per call but amortizes over ceil(m/MR) microkernel passes; for
/// skinny products (the 8-row LM training matmuls, 1-row decode) the
/// direct path -- the same MR x NR register tile reading B in place --
/// streams B fewer times than packing costs. Pinned with
/// bench/micro_gemm.cpp (BM_Gemm{Packed,Small}Forced). NT is excluded
/// because the rule must hold on both backends: the AVX2 NT small kernel
/// beats packing at every m <= 16 shape tried, but the scalar backend's
/// NT small path is the unblocked reference, which loses to packing
/// above the flops threshold (8x512x512: about 1.9 ms against 1.1 ms).
inline constexpr std::int64_t kGemmSmallRows = 16;

/// Test/bench hooks: force one path regardless of size. Both produce
/// bit-identical results by the canonical-order contract; gemm() is
/// dispatch plus these.
void gemm_packed(GemmVariant variant, double* c, const double* a, const double* b, std::int64_t m,
                 std::int64_t n, std::int64_t k, bool accumulate = false);
void gemm_small(GemmVariant variant, double* c, const double* a, const double* b, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate = false);

}  // namespace detail

}  // namespace yf::core
