// Elementwise and linear-algebra operations on yf::tensor::Tensor.
//
// Functions return fresh tensors unless suffixed `_into`. Every `_into`
// variant writes the result into a caller-owned tensor of the correct
// shape -- the autograd tape routes the model hot path through these so
// steady-state steps reuse workspace-backed outputs instead of allocating
// (DESIGN.md §8). The fresh matmul and transpose forms are implemented on
// top of the `_into` forms, so the two paths are bit-identical.
// Shapes are validated eagerly; mismatches throw std::invalid_argument.
#pragma once

#include "tensor/tensor.hpp"

namespace yf::tensor {

// -- Elementwise. --------------------------------------------------------------
Tensor square(const Tensor& a);

// -- Reductions (over all elements). -----------------------------------------
double sum(const Tensor& a);
double mean(const Tensor& a);
double max(const Tensor& a);
double min(const Tensor& a);
/// Euclidean norm of the flattened tensor.
double norm(const Tensor& a);
double dot(const Tensor& a, const Tensor& b);

// -- 2-D linear algebra. -------------------------------------------------------
// All three matmul layouts route through the packed GEMM subsystem
// (core/gemm.hpp): the NT/TN forms absorb the transpose in the packing
// step, so callers (autograd pullbacks, tied-embedding decode, conv)
// never materialize a transposed operand.
/// C[m,n] = A[m,k] @ B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] @ B[n,k]ᵀ.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// C[m,n] = A[k,m]ᵀ @ B[k,n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// Transpose of a 2-D tensor.
Tensor transpose(const Tensor& a);

// -- In-place variants writing into a preallocated output. --------------------
// `out` must already have the result shape. `out` may not alias inputs.
// The matmul variants *overwrite* `out` (beta = 0 inside the GEMM), so a
// dirty reused output needs no zeroing pass.
void copy_into(Tensor& out, const Tensor& a);  ///< out = a (shapes equal by size)
void add_into(Tensor& out, const Tensor& a, const Tensor& b);
void sub_into(Tensor& out, const Tensor& a, const Tensor& b);
void mul_into(Tensor& out, const Tensor& a, const Tensor& b);
void mul_scalar_into(Tensor& out, const Tensor& a, double s);
void square_into(Tensor& out, const Tensor& a);
void tanh_into(Tensor& out, const Tensor& a);
void sigmoid_into(Tensor& out, const Tensor& a);
void relu_into(Tensor& out, const Tensor& a);
void matmul_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b);
void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b);
void transpose_into(Tensor& out, const Tensor& a);
/// out[m,n] = a[m,n] + bias[n] (bias broadcast over rows).
void add_row_broadcast_into(Tensor& out, const Tensor& a, const Tensor& bias);
/// Column sums of a 2-D [m, n] tensor into a rank-1 out of length n.
void sum_rows_into(Tensor& out, const Tensor& a);

// -- LSTM cell (gate layout i | f | g | o, each H columns wide). --------------
// The cell's forward math, written once: the autograd op lstm_cell and
// serve::LMForward both call these.
// Each element takes the operation sequence of the same cell built from
// add, add_row_broadcast, slice_cols, sigmoid, tanh and mul, so the two
// are bit-identical (pinned by Lstm.FusedCellMatchesUnfusedChain).
/// gates[B, 4H] = act((zx + zh) + b), with sigmoid on the i, f and o
/// blocks and tanh on g.
void lstm_gates_into(Tensor& gates, const Tensor& zx, const Tensor& zh, const Tensor& b);
/// c[B, H] = (f * c_prev) + (i * g).
void lstm_cell_into(Tensor& c, const Tensor& gates, const Tensor& c_prev);
/// tc[B, H] = tanh(c) and h[B, H] = o * tc.
void lstm_hidden_into(Tensor& h, Tensor& tc, const Tensor& gates, const Tensor& c);

// -- Comparison helpers (used heavily by tests). ------------------------------
/// max_i |a_i - b_i|; shapes must match.
double max_abs_diff(const Tensor& a, const Tensor& b);
bool allclose(const Tensor& a, const Tensor& b, double atol = 1e-9, double rtol = 1e-7);

}  // namespace yf::tensor
