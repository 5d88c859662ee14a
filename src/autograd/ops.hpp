// Differentiable operations over yf::autograd::Variable.
//
// Each op computes its value eagerly with yf::tensor and records a pullback
// closure that scatters the output gradient into the parents. Pullbacks
// add their GEMM products into the parents' gradients through core::gemm's
// accumulate form, with no product scratch. Ops taking integer index
// arguments (embedding, cross-entropy labels) treat those as
// non-differentiable. The LSTM cell is one op over a packed [2B, H] state
// (lstm_cell), so the recurrence records two nodes per cell step.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "autograd/variable.hpp"

namespace yf::autograd {

// Every op records onto the thread's active GraphTape when one is
// installed (autograd/tape.hpp) -- reusing the cached node, output buffer
// and backward closure of the previous step when the structure matches --
// and falls back to a fresh heap node otherwise. Gradients are
// bit-identical between the two paths.

// -- Elementwise / scalar ops. -----------------------------------------------
Variable add(const Variable& a, const Variable& b);
Variable sub(const Variable& a, const Variable& b);
Variable mul(const Variable& a, const Variable& b);  ///< elementwise
Variable mul_scalar(const Variable& a, double s);
Variable relu(const Variable& a);
Variable tanh(const Variable& a);
Variable sigmoid(const Variable& a);
Variable square(const Variable& a);

// -- Reductions. ----------------------------------------------------------------
Variable sum(const Variable& a);   ///< scalar (1-element) output
Variable mean(const Variable& a);  ///< scalar output

// -- Constants. ---------------------------------------------------------------
/// All-zeros constant (requires_grad == false). Under a tape the zero
/// buffer is cached across steps, so per-step zero states are free.
Variable zeros(std::span<const std::int64_t> dims);
Variable zeros(std::initializer_list<std::int64_t> dims);

// -- Shape ops. --------------------------------------------------------------
Variable reshape(const Variable& a, std::span<const std::int64_t> dims);
Variable reshape(const Variable& a, std::initializer_list<std::int64_t> dims);
Variable reshape(const Variable& a, tensor::Shape new_shape);
/// Columns [col_begin, col_end) of a 2-D tensor.
Variable slice_cols(const Variable& a, std::int64_t col_begin, std::int64_t col_end);
/// Rows [row_begin, row_end) of a 2-D tensor (e.g. the h or c rows of an
/// lstm_cell state).
Variable slice_rows(const Variable& a, std::int64_t row_begin, std::int64_t row_end);
/// Concatenate 2-D tensors along columns (all with equal row counts).
Variable concat_cols(const std::vector<Variable>& parts);

// -- Linear algebra. -----------------------------------------------------------
Variable matmul(const Variable& a, const Variable& b);
/// C = A @ Bᵀ without materializing the transpose (A [m,k], B [n,k]):
/// the GEMM NT variant absorbs it in the packing step. Used for the
/// tied-embedding decode.
Variable matmul_nt(const Variable& a, const Variable& b);
/// Transpose of a 2-D variable.
Variable transpose(const Variable& a);
/// y[m,n] = a[m,n] + bias[n].
Variable add_row_broadcast(const Variable& a, const Variable& bias);

// -- Neural-net specific. ------------------------------------------------------
/// Mean cross-entropy of logits [B, C] against integer labels (size B).
/// Numerically stable log-sum-exp formulation.
Variable softmax_cross_entropy(const Variable& logits, const std::vector<std::int64_t>& labels);

/// One LSTM cell step as one op (gate layout i | f | g | o, each H
/// columns wide). Its value is the packed state [2B, H]: rows [0, B) hold
/// h = o * tanh(c), rows [B, 2B) hold c = (f * c_prev) + (i * g), where
/// the gates are act((x @ w_x + h_prev @ w_h) + b), sigmoid on i, f, o
/// and tanh on g, computed by tensor::lstm_{gates,cell,hidden}_into.
/// x is [B, I] or the packed state of the layer below (its h rows are
/// read); h_prev and c_prev are [B, H], or both the packed state of the
/// previous step (its h rows and its c rows). It records two nodes: the
/// input projection x @ w_x, which keeps its own place in the backward
/// order, and the cell. Values and gradients are bit-identical to the
/// same cell built from matmul, add, add_row_broadcast, slice_cols,
/// sigmoid, tanh and mul.
Variable lstm_cell(const Variable& x, const Variable& h_prev, const Variable& c_prev,
                   const Variable& w_x, const Variable& w_h, const Variable& b);

/// Embedding lookup: weight [V, E], indices (size B) -> output [B, E].
Variable embedding(const Variable& weight, const std::vector<std::int64_t>& indices);

/// 2-D convolution, NCHW. input [N, C, H, W], weight [F, C, KH, KW],
/// bias [F]. Zero padding `pad` on all sides, square stride.
Variable conv2d(const Variable& input, const Variable& weight, const Variable& bias,
                std::int64_t stride, std::int64_t pad);

/// Batch normalization over NCHW input using *batch* statistics (training
/// mode): per channel c, y = gamma[c] * (x - mean_c)/sqrt(var_c + eps) +
/// beta[c], where mean/var pool over N, H, W.
Variable batch_norm2d(const Variable& input, const Variable& gamma, const Variable& beta,
                      double eps = 1e-5);

/// Global average pooling: [N, C, H, W] -> [N, C].
Variable global_avg_pool(const Variable& input);

}  // namespace yf::autograd
