// GEMM driver: size dispatch, panel hierarchy, packing, and row-block
// parallelism (DESIGN.md §9). The arithmetic lives behind the kernel
// dispatch table (gemm_micro / gemm_small_* in kernel_table.hpp); this
// file never multiplies two matrix elements itself, so the canonical
// accumulation order has exactly one definition per backend.
#include "core/gemm.hpp"

#include <algorithm>
#include <span>

#include "core/kernels.hpp"
#include "core/kernels/kernel_table.hpp"
#include "core/parallel.hpp"
#include "core/workspace.hpp"

namespace yf::core {

namespace {

using detail::kGemmKC;
using detail::kGemmMC;
using detail::kGemmMR;
using detail::kGemmNC;
using detail::kGemmNR;

/// Mul-add pairs a parallel chunk should carry before pool dispatch
/// amortizes (~0.1 ms of microkernel work). Cache blocking, not results:
/// partitioning row blocks never changes any element's accumulation.
constexpr std::int64_t kGemmGrainWork = 1 << 18;

/// Per-thread packing arena. Thread-local rather than per-call: the
/// calling thread packs B slabs, each pool worker packs its own A
/// blocks, and high-water-mark reuse makes every steady-state call
/// allocation-free. mark()/rollback() brackets keep the footprint at
/// the per-call peak instead of accumulating.
Workspace& pack_workspace() {
  static thread_local Workspace ws;
  return ws;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Pack op(B)[pc:pc+kc, jc:jc+nc] into NR-column tiles: tile jt holds
/// kc groups of NR consecutive columns (stride kc*NR per tile), columns
/// beyond n zero-padded so the microkernel never reads garbage.
///
/// Loop nests follow the *source* stride: the NN/TN layout streams one
/// B row per kk (scattering 64-byte groups into the tiles), the NT
/// layout streams one B row per destination column. Packing is pure
/// copies, so the nest order is a bandwidth choice, never a results one.
void pack_b_slab(GemmVariant v, double* bp, const double* b, std::int64_t n, std::int64_t k,
                 std::int64_t jc, std::int64_t nc, std::int64_t pc, std::int64_t kc) {
  const std::int64_t tiles = ceil_div(nc, kGemmNR);
  if (v == GemmVariant::kNT) {
    // op(B)[kk][j] = B[j][kk]: source row j covers destination column j.
    const std::int64_t tile_grain = std::max<std::int64_t>(1, kDefaultGrain / (kc * kGemmNR));
    parallel_for(tiles, tile_grain, [&](std::int64_t lo, std::int64_t hi) {
      for (std::int64_t jt = lo; jt < hi; ++jt) {
        double* dst = bp + jt * kc * kGemmNR;
        const std::int64_t j0 = jc + jt * kGemmNR;
        const std::int64_t cols = std::min<std::int64_t>(kGemmNR, jc + nc - j0);
        for (std::int64_t jj = 0; jj < cols; ++jj) {
          const double* src = b + (j0 + jj) * k + pc;
          for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * kGemmNR + jj] = src[kk];
        }
        for (std::int64_t jj = cols; jj < kGemmNR; ++jj) {
          for (std::int64_t kk = 0; kk < kc; ++kk) dst[kk * kGemmNR + jj] = 0.0;
        }
      }
    });
    return;
  }
  // NN/TN: B stored k x n; stream whole rows (kk outer), scatter into
  // the per-tile groups. Parallel over kk ranges: chunks write disjoint
  // kk groups of every tile.
  const std::int64_t kk_grain =
      std::max<std::int64_t>(1, kDefaultGrain / std::max<std::int64_t>(1, nc));
  parallel_for(kc, kk_grain, [&](std::int64_t klo, std::int64_t khi) {
    for (std::int64_t kk = klo; kk < khi; ++kk) {
      const double* src = b + (pc + kk) * n + jc;
      double* dstk = bp + kk * kGemmNR;
      const std::int64_t full = nc / kGemmNR;
      for (std::int64_t jt = 0; jt < full; ++jt) {
        double* grp = dstk + jt * kc * kGemmNR;
        const double* s = src + jt * kGemmNR;
        for (std::int64_t jj = 0; jj < kGemmNR; ++jj) grp[jj] = s[jj];
      }
      if (full < tiles) {
        double* grp = dstk + full * kc * kGemmNR;
        const std::int64_t cols = nc - full * kGemmNR;
        const double* s = src + full * kGemmNR;
        for (std::int64_t jj = 0; jj < cols; ++jj) grp[jj] = s[jj];
        for (std::int64_t jj = cols; jj < kGemmNR; ++jj) grp[jj] = 0.0;
      }
    }
  });
}

/// Pack op(A)[ic:ic+mc, pc:pc+kc] into MR-row tiles: tile it holds kc
/// groups of MR consecutive rows (stride kc*MR per tile), rows beyond m
/// zero-padded. Runs inside the row-block parallel region, so it is
/// plain sequential copies into the worker's own buffer.
void pack_a_block(GemmVariant v, double* ap, const double* a, std::int64_t m, std::int64_t k,
                  std::int64_t ic, std::int64_t mc, std::int64_t pc, std::int64_t kc) {
  const std::int64_t tiles = ceil_div(mc, kGemmMR);
  for (std::int64_t it = 0; it < tiles; ++it) {
    double* dst = ap + it * kc * kGemmMR;
    const std::int64_t i0 = ic + it * kGemmMR;
    const std::int64_t rows = std::min<std::int64_t>(kGemmMR, ic + mc - i0);
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      double* grp = dst + kk * kGemmMR;
      if (v == GemmVariant::kTN) {
        // op(A)[i][kk] = A[kk][i], A stored k x m.
        const double* src = a + (pc + kk) * m + i0;
        for (std::int64_t rr = 0; rr < rows; ++rr) grp[rr] = src[rr];
      } else {
        for (std::int64_t rr = 0; rr < rows; ++rr) grp[rr] = a[(i0 + rr) * k + pc + kk];
      }
      for (std::int64_t rr = rows; rr < kGemmMR; ++rr) grp[rr] = 0.0;
    }
  }
}

using GemmPath = void (*)(GemmVariant, double*, const double*, const double*, std::int64_t,
                          std::int64_t, std::int64_t, bool);

/// Handles what a path's kernels do not: empty outputs, k == 0 (C is
/// zeroed), and the accumulate form unless k is one k-panel, which runs
/// `path` into workspace scratch and then adds that product into C.
/// Returns true when C is done.
bool degenerate_or_split(GemmPath path, GemmVariant variant, double* c, const double* a,
                         const double* b, std::int64_t m, std::int64_t n, std::int64_t k,
                         bool accumulate) {
  if (m <= 0 || n <= 0) return true;
  const std::span<double> cs(c, static_cast<std::size_t>(m * n));
  if (!accumulate) {
    if (k <= 0) fill(cs, 0.0);
    return k <= 0;
  }
  if (k >= 1 && k <= kGemmKC) return false;
  Workspace& ws = pack_workspace();
  const Workspace::Marker mark = ws.mark();
  const std::span<double> product = ws.acquire_span(m * n);
  path(variant, product.data(), a, b, m, n, k, false);
  axpy(cs, product, 1.0);
  ws.rollback(mark);
  return true;
}

}  // namespace

namespace detail {

void gemm_small(GemmVariant variant, double* c, const double* a, const double* b, std::int64_t m,
                std::int64_t n, std::int64_t k, bool accumulate) {
  if (degenerate_or_split(gemm_small, variant, c, a, b, m, n, k, accumulate)) return;
  const KernelTable& table = active_table();
  switch (variant) {
    case GemmVariant::kNN:
      table.gemm_small_nn(c, a, b, m, n, k, accumulate);
      break;
    case GemmVariant::kNT:
      table.gemm_small_nt(c, a, b, m, n, k, accumulate);
      break;
    case GemmVariant::kTN:
      table.gemm_small_tn(c, a, b, m, n, k, accumulate);
      break;
  }
}

void gemm_packed(GemmVariant variant, double* c, const double* a, const double* b, std::int64_t m,
                 std::int64_t n, std::int64_t k, bool accumulate) {
  if (degenerate_or_split(gemm_packed, variant, c, a, b, m, n, k, accumulate)) return;
  const KernelTable& table = active_table();

  Workspace& ws = pack_workspace();
  const Workspace::Marker outer = ws.mark();
  // One B slab (reused across k-panels) sized for the widest slab.
  const std::int64_t nc_max = std::min(n, kGemmNC);
  const std::int64_t bp_cols = ceil_div(nc_max, kGemmNR) * kGemmNR;
  double* bp = ws.acquire_span(kGemmKC * bp_cols).data();

  const std::int64_t row_blocks = ceil_div(m, kGemmMC);
  for (std::int64_t jc = 0; jc < n; jc += kGemmNC) {
    const std::int64_t nc = std::min(kGemmNC, n - jc);
    const std::int64_t col_tiles = ceil_div(nc, kGemmNR);
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      const std::int64_t kc = std::min(kGemmKC, k - pc);
      const bool beta0 = pc == 0 && !accumulate;
      pack_b_slab(variant, bp, b, n, k, jc, nc, pc, kc);
      // Row blocks are independent: each carries its own packed A block
      // (worker-local workspace) and writes a disjoint C row range, so
      // the partition cannot affect any element's accumulation order.
      const std::int64_t block_grain =
          std::max<std::int64_t>(1, kGemmGrainWork / std::max<std::int64_t>(1, kGemmMC * kc * nc));
      parallel_for(row_blocks, block_grain, [&](std::int64_t blo, std::int64_t bhi) {
        Workspace& wws = pack_workspace();
        const Workspace::Marker mark = wws.mark();
        double* ap = wws.acquire_span(kGemmMC * kGemmKC).data();
        for (std::int64_t blk = blo; blk < bhi; ++blk) {
          const std::int64_t ic = blk * kGemmMC;
          const std::int64_t mc = std::min(kGemmMC, m - ic);
          pack_a_block(variant, ap, a, m, k, ic, mc, pc, kc);
          const std::int64_t row_tiles = ceil_div(mc, kGemmMR);
          for (std::int64_t jt = 0; jt < col_tiles; ++jt) {
            const double* bpt = bp + jt * kc * kGemmNR;
            const std::int64_t j0 = jc + jt * kGemmNR;
            const std::int64_t cols = std::min<std::int64_t>(kGemmNR, jc + nc - j0);
            for (std::int64_t it = 0; it < row_tiles; ++it) {
              const std::int64_t i0 = ic + it * kGemmMR;
              const std::int64_t rows = std::min<std::int64_t>(kGemmMR, ic + mc - i0);
              table.gemm_micro(c + i0 * n + j0, n, ap + it * kc * kGemmMR, bpt, kc, rows, cols,
                               beta0);
            }
          }
        }
        wws.rollback(mark);
      });
    }
  }
  ws.rollback(outer);
}

}  // namespace detail

void gemm(GemmVariant variant, double* c, const double* a, const double* b, std::int64_t m,
          std::int64_t n, std::int64_t k, bool accumulate) {
  const bool small = m * n * k <= detail::kGemmSmallWork ||
                     (variant != GemmVariant::kNT && m <= detail::kGemmSmallRows);
  if (small) {
    detail::gemm_small(variant, c, a, b, m, n, k, accumulate);
  } else {
    detail::gemm_packed(variant, c, a, b, m, n, k, accumulate);
  }
}

}  // namespace yf::core
