#include "autograd/ops.hpp"

#include <cmath>
#include <stdexcept>

#include "autograd/tape.hpp"
#include "core/conv_math.hpp"
#include "core/gemm.hpp"
#include "core/kernels.hpp"
#include "tensor/ops.hpp"

// Every op here follows the same shape (DESIGN.md §8):
//
//   1. validate inputs and compute the output dimensions;
//   2. obtain a Frame via make_frame(): on an active GraphTape this
//      match-or-creates the cached node at the cursor (zero allocation on
//      a match), otherwise it builds a fresh heap node;
//   3. compute the value *into* the frame's output tensor through the
//      `_into` tensor kernels, on replay as on first recording -- never
//      into a fresh temporary;
//   4. when the frame is fresh (first recording / heap path), allocate
//      any backward scratch via make_scratch() and install the pullback
//      closure. Closures are built once per node and reused on replay.
//
// Numerical contract: each pullback performs the exact per-element
// operation sequence of the historical implementation (same multiply/add
// order, same kernel calls), so gradients are bit-identical between the
// tape path and the per-step heap path.

namespace yf::autograd {

namespace t = yf::tensor;

namespace {

std::span<const std::int64_t> dims_of(const t::Tensor& x) {
  return {x.shape().data(), x.shape().size()};
}

double* grad_ptr(Node& n) { return n.ensure_grad().data().data(); }
const double* value_ptr(const Node& n) { return n.value.data().data(); }

using core::GemmVariant;

/// Signature of lstm_cell nodes; a parent carrying it holds a packed state.
constexpr char kLstmCellOp[] = "lstm_cell";

/// Where an op reads a [B, cols] operand: all of a plain variable, or half
/// of a packed lstm_cell state [2B, cols] -- its h rows (first half) for
/// lstm_cell's x and h_prev and for the head ops' x, its c rows (second
/// half) for c_prev.
struct CellOperand {
  std::int64_t rows = 0;    ///< B
  std::int64_t offset = 0;  ///< first element read
  bool packed = false;
};

CellOperand cell_operand(const Variable& v, bool c_rows) {
  const auto& t = v.value();
  CellOperand o;
  o.packed = v.node()->op_name == kLstmCellOp;
  o.rows = t.ndim() == 2 ? (o.packed ? t.dim(0) / 2 : t.dim(0)) : -1;
  o.offset = o.packed && c_rows ? o.rows * t.dim(1) : 0;
  return o;
}

/// The parents of an op over a list of variables, in a per-thread vector:
/// concat_cols and the loss take one per step, and a fresh vector each
/// step would be a steady-state allocation. The caller clears it once the
/// frame holds the parents, so no handles linger.
std::vector<NodePtr>& parent_list(std::span<const Variable> vars) {
  static thread_local std::vector<NodePtr> parents;
  parents.clear();
  for (const auto& v : vars) parents.push_back(v.node());
  return parents;
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  t::check_same_shape(a.value(), b.value(), "autograd::add");
  auto an = a.node();
  auto bn = b.node();
  const NodePtr parents[] = {an, bn};
  auto f = make_frame("add", parents, dims_of(a.value()));
  t::add_into(f.node->value, a.value(), b.value());
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, bn](Node& n) {
      an->accumulate_grad(n.grad);
      bn->accumulate_grad(n.grad);
    };
  }
  return Variable(std::move(f.handle));
}

Variable sub(const Variable& a, const Variable& b) {
  t::check_same_shape(a.value(), b.value(), "autograd::sub");
  auto an = a.node();
  auto bn = b.node();
  const NodePtr parents[] = {an, bn};
  auto f = make_frame("sub", parents, dims_of(a.value()));
  t::sub_into(f.node->value, a.value(), b.value());
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, bn](Node& n) {
      an->accumulate_grad(n.grad);
      if (bn->requires_grad) bn->ensure_grad().add_(n.grad, -1.0);
    };
  }
  return Variable(std::move(f.handle));
}

Variable mul(const Variable& a, const Variable& b) {
  t::check_same_shape(a.value(), b.value(), "autograd::mul");
  auto an = a.node();
  auto bn = b.node();
  const NodePtr parents[] = {an, bn};
  auto f = make_frame("mul", parents, dims_of(a.value()));
  t::mul_into(f.node->value, a.value(), b.value());
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, bn](Node& n) {
      const auto og = n.grad.data();
      if (an->requires_grad) {
        auto g = an->ensure_grad().data();
        const auto bv = bn->value.data();
        for (std::size_t i = 0; i < g.size(); ++i) g[i] += og[i] * bv[i];
      }
      if (bn->requires_grad) {
        auto g = bn->ensure_grad().data();
        const auto av = an->value.data();
        for (std::size_t i = 0; i < g.size(); ++i) g[i] += og[i] * av[i];
      }
    };
  }
  return Variable(std::move(f.handle));
}

Variable mul_scalar(const Variable& a, double s) {
  auto an = a.node();
  const NodePtr parents[] = {an};
  const double attrs[] = {s};
  auto f = make_frame("mul_scalar", parents, dims_of(a.value()), attrs);
  t::mul_scalar_into(f.node->value, a.value(), s);
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, s](Node& n) {
      if (an->requires_grad) an->ensure_grad().add_(n.grad, s);
    };
  }
  return Variable(std::move(f.handle));
}

namespace {

/// Helper for unary elementwise ops whose local derivative is a function of
/// the *output* value (tanh, sigmoid) or the *input* value.
template <typename DFn>
Variable unary_op(const Variable& a, const char* sig,
                  void (*compute_into)(t::Tensor&, const t::Tensor&), DFn dfn) {
  auto an = a.node();
  const NodePtr parents[] = {an};
  auto f = make_frame(sig, parents, dims_of(a.value()));
  compute_into(f.node->value, a.value());
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, dfn](Node& n) {
      if (!an->requires_grad) return;
      auto& g = an->ensure_grad();
      auto gd = g.data();
      auto og = n.grad.data();
      auto ov = n.value.data();
      auto iv = an->value.data();
      for (std::size_t i = 0; i < gd.size(); ++i) gd[i] += og[i] * dfn(iv[i], ov[i]);
    };
  }
  return Variable(std::move(f.handle));
}

}  // namespace

Variable relu(const Variable& a) {
  return unary_op(
      a, "relu", t::relu_into, [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Variable tanh(const Variable& a) {
  return unary_op(
      a, "tanh", t::tanh_into, [](double, double y) { return 1.0 - y * y; });
}

Variable sigmoid(const Variable& a) {
  return unary_op(
      a, "sigmoid", t::sigmoid_into, [](double, double y) { return y * (1.0 - y); });
}

Variable square(const Variable& a) {
  return unary_op(
      a, "square", t::square_into, [](double x, double) { return 2.0 * x; });
}

Variable sum(const Variable& a) {
  auto an = a.node();
  const NodePtr parents[] = {an};
  const std::int64_t one[] = {1};
  auto f = make_frame("sum", parents, one);
  f.node->value[0] = t::sum(a.value());
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an](Node& n) {
      if (!an->requires_grad) return;
      auto g = an->ensure_grad().data();
      const double s = n.grad[0];
      for (std::size_t i = 0; i < g.size(); ++i) g[i] += s;
    };
  }
  return Variable(std::move(f.handle));
}

Variable mean(const Variable& a) {
  // Validate before recording: a throw after make_frame would leave a
  // half-built node on the tape for later steps to replay.
  if (a.value().size() == 0) throw std::invalid_argument("mean: empty tensor");
  auto an = a.node();
  const double inv = 1.0 / static_cast<double>(a.value().size());
  const NodePtr parents[] = {an};
  const std::int64_t one[] = {1};
  auto f = make_frame("mean", parents, one);
  f.node->value[0] = t::mean(a.value());
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, inv](Node& n) {
      if (!an->requires_grad) return;
      auto g = an->ensure_grad().data();
      const double s = n.grad[0] * inv;
      for (std::size_t i = 0; i < g.size(); ++i) g[i] += s;
    };
  }
  return Variable(std::move(f.handle));
}

Variable reshape(const Variable& a, std::span<const std::int64_t> dims) {
  std::int64_t total = 1;
  for (auto d : dims) total *= d;
  if (total != a.value().size()) {
    throw std::invalid_argument("autograd::reshape: cannot reshape " +
                                t::to_string(a.value().shape()) + " to the requested dims");
  }
  auto an = a.node();
  const NodePtr parents[] = {an};
  auto f = make_frame("reshape", parents, dims);
  // A copy, not a view: the node's value must not alias the parent's
  // storage. The pullback just flows the (flat) grad back.
  t::copy_into(f.node->value, a.value());
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an](Node& n) {
      if (an->requires_grad) core::axpy(an->ensure_grad().data(), n.grad.data(), 1.0);
    };
  }
  return Variable(std::move(f.handle));
}

Variable reshape(const Variable& a, std::initializer_list<std::int64_t> dims) {
  return reshape(a, std::span<const std::int64_t>(dims.begin(), dims.size()));
}

Variable reshape(const Variable& a, t::Shape new_shape) {
  return reshape(a, std::span<const std::int64_t>(new_shape.data(), new_shape.size()));
}

Variable zeros(std::span<const std::int64_t> dims) {
  auto f = make_frame("zeros", {}, dims);
  // Freshly acquired buffers are zero-filled; nothing ever writes a
  // constant node's value, so a replayed node is still all zeros.
  return Variable(std::move(f.handle));
}

Variable zeros(std::initializer_list<std::int64_t> dims) {
  return zeros(std::span<const std::int64_t>(dims.begin(), dims.size()));
}

Variable slice_cols(const Variable& a, std::int64_t col_begin, std::int64_t col_end) {
  const auto& v = a.value();
  if (v.ndim() != 2) throw std::invalid_argument("slice_cols: expected 2-D input");
  const auto m = v.dim(0), ncols = v.dim(1);
  if (col_begin < 0 || col_end > ncols || col_begin >= col_end) {
    throw std::invalid_argument("slice_cols: bad range [" + std::to_string(col_begin) + ", " +
                                std::to_string(col_end) + ") for " + t::to_string(v.shape()));
  }
  const auto w = col_end - col_begin;
  auto an = a.node();
  const NodePtr parents[] = {an};
  const std::int64_t dims[] = {m, w};
  const double attrs[] = {static_cast<double>(col_begin), static_cast<double>(col_end)};
  auto f = make_frame("slice_cols", parents, dims, attrs);
  auto& out = f.node->value;
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < w; ++j) out[i * w + j] = v[i * ncols + col_begin + j];
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, col_begin, w, ncols, m](Node& n) {
      if (!an->requires_grad) return;
      auto& g = an->ensure_grad();
      for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < w; ++j) g[i * ncols + col_begin + j] += n.grad[i * w + j];
    };
  }
  return Variable(std::move(f.handle));
}

Variable concat_cols(const std::vector<Variable>& parts) {
  if (parts.empty()) throw std::invalid_argument("concat_cols: no inputs");
  const auto m = parts[0].value().dim(0);
  std::int64_t total = 0;
  for (const auto& p : parts) {
    if (p.value().ndim() != 2 || p.value().dim(0) != m) {
      throw std::invalid_argument("concat_cols: inputs must be 2-D with equal row counts");
    }
    total += p.value().dim(1);
  }
  std::vector<NodePtr>& parent_scratch = parent_list(parts);
  const std::int64_t dims[] = {m, total};
  auto f = make_frame("concat_cols", parent_scratch, dims);
  auto& out = f.node->value;
  std::int64_t off = 0;
  for (const auto& p : parts) {
    const auto w = p.value().dim(1);
    const auto& pv = p.value();
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t j = 0; j < w; ++j) out[i * total + off + j] = pv[i * w + j];
    off += w;
  }
  if (f.fresh && f.node->requires_grad) {
    std::vector<NodePtr> parents = parent_scratch;
    std::vector<std::int64_t> widths;
    widths.reserve(parts.size());
    for (const auto& p : parts) widths.push_back(p.value().dim(1));
    f.node->backward_fn = [parents, widths, m, total](Node& n) {
      std::int64_t off2 = 0;
      for (std::size_t k = 0; k < parents.size(); ++k) {
        const auto w = widths[k];
        if (parents[k]->requires_grad) {
          auto& g = parents[k]->ensure_grad();
          for (std::int64_t i = 0; i < m; ++i)
            for (std::int64_t j = 0; j < w; ++j) g[i * w + j] += n.grad[i * total + off2 + j];
        }
        off2 += w;
      }
    };
  }
  parent_scratch.clear();
  return Variable(std::move(f.handle));
}

namespace {

/// C [m, n] = A[:m] @ B [k, n], reading only A's first m rows: all of A for
/// matmul, the h rows of a packed state for lstm_cell's input projection.
/// The caller validates the shapes.
Variable matmul_top_rows(const char* sig, const Variable& a, std::int64_t m, const Variable& b) {
  const auto k = b.value().dim(0), n = b.value().dim(1);
  auto an = a.node();
  auto bn = b.node();
  const NodePtr parents[] = {an, bn};
  const std::int64_t dims[] = {m, n};
  auto f = make_frame(sig, parents, dims);
  core::gemm(GemmVariant::kNN, f.node->value.data().data(), value_ptr(*an), value_ptr(*bn), m, n,
             k);
  if (f.fresh && f.node->requires_grad) {
    // dA += dC @ Bᵀ via the NT variant, dB += Aᵀ @ dC via TN: the packing
    // step absorbs the transpose and the accumulate form the add.
    f.node->backward_fn = [an, bn, m, k, n](Node& nn) {
      const double* dc = nn.grad.data().data();
      if (an->requires_grad) {
        core::gemm(GemmVariant::kNT, grad_ptr(*an), dc, value_ptr(*bn), m, k, n,
                   /*accumulate=*/true);
      }
      if (bn->requires_grad) {
        core::gemm(GemmVariant::kTN, grad_ptr(*bn), value_ptr(*an), dc, k, n, m,
                   /*accumulate=*/true);
      }
    };
  }
  return Variable(std::move(f.handle));
}

}  // namespace

Variable matmul(const Variable& a, const Variable& b) {
  const auto& av = a.value();
  const auto& bv = b.value();
  if (av.ndim() != 2 || bv.ndim() != 2) {
    throw std::invalid_argument("matmul: expected 2-D tensors, got " + t::to_string(av.shape()) +
                                " and " + t::to_string(bv.shape()));
  }
  if (av.dim(1) != bv.dim(0)) {
    throw std::invalid_argument("matmul: inner dimension mismatch " + t::to_string(av.shape()) +
                                " vs " + t::to_string(bv.shape()));
  }
  return matmul_top_rows("matmul", a, av.dim(0), b);
}

Variable matmul_nt(const Variable& a, const Variable& b) {
  const auto& av = a.value();
  const auto& bv = b.value();
  if (av.ndim() != 2 || bv.ndim() != 2) {
    throw std::invalid_argument("matmul_nt: expected 2-D tensors, got " +
                                t::to_string(av.shape()) + " and " + t::to_string(bv.shape()));
  }
  if (av.dim(1) != bv.dim(1)) {
    throw std::invalid_argument("matmul_nt: inner dimension mismatch " +
                                t::to_string(av.shape()) + " vs " + t::to_string(bv.shape()));
  }
  // The A rows read: all of a plain A, the h rows of a packed state.
  const auto m = cell_operand(a, false).rows, k = av.dim(1), n = bv.dim(0);
  auto an = a.node();
  auto bn = b.node();
  const NodePtr parents[] = {an, bn};
  const std::int64_t dims[] = {m, n};
  auto f = make_frame("matmul_nt", parents, dims);
  // matmul_nt_into's GEMM, over A's first m rows.
  core::gemm(GemmVariant::kNT, f.node->value.data().data(), value_ptr(*an), value_ptr(*bn), m, n,
             k);
  if (f.fresh && f.node->requires_grad) {
    // C = A Bᵀ: dA += dC @ B (plain NN), dB += dCᵀ @ A (TN).
    f.node->backward_fn = [an, bn, m, k, n](Node& nn) {
      const double* dc = nn.grad.data().data();
      if (an->requires_grad) {
        core::gemm(GemmVariant::kNN, grad_ptr(*an), dc, value_ptr(*bn), m, k, n,
                   /*accumulate=*/true);
      }
      if (bn->requires_grad) {
        core::gemm(GemmVariant::kTN, grad_ptr(*bn), dc, value_ptr(*an), n, k, m,
                   /*accumulate=*/true);
      }
    };
  }
  return Variable(std::move(f.handle));
}

Variable transpose(const Variable& a) {
  const auto& v = a.value();
  if (v.ndim() != 2) {
    throw std::invalid_argument("transpose: expected 2-D tensor, got " + t::to_string(v.shape()));
  }
  const auto m = v.dim(0), n = v.dim(1);
  auto an = a.node();
  const NodePtr parents[] = {an};
  const std::int64_t dims[] = {n, m};
  auto f = make_frame("transpose", parents, dims);
  t::transpose_into(f.node->value, v);
  if (f.fresh && f.node->requires_grad) {
    t::Tensor gT = make_scratch({m, n});
    f.node->backward_fn = [an, gT](Node& nn) mutable {
      if (!an->requires_grad) return;
      t::transpose_into(gT, nn.grad);
      an->ensure_grad().add_(gT);
    };
  }
  return Variable(std::move(f.handle));
}

Variable add_row_broadcast(const Variable& a, const Variable& bias) {
  const auto& av = a.value();
  auto an = a.node();
  auto bn = bias.node();
  const NodePtr parents[] = {an, bn};
  auto f = make_frame("add_row_broadcast", parents, dims_of(av));
  t::add_row_broadcast_into(f.node->value, av, bias.value());
  if (f.fresh && f.node->requires_grad) {
    t::Tensor colsum;
    if (bn->requires_grad) colsum = make_scratch({av.dim(1)});
    f.node->backward_fn = [an, bn, colsum](Node& n) mutable {
      an->accumulate_grad(n.grad);
      if (bn->requires_grad) {
        t::sum_rows_into(colsum, n.grad);
        bn->ensure_grad().add_(colsum);
      }
    };
  }
  return Variable(std::move(f.handle));
}

// One node for the chain add_row_broadcast(matmul(x, w), b). The pullback
// keeps each of the chain's sums: the chain's add_row_broadcast passed its
// gradient unchanged to the matmul, whose NT and TN GEMMs added into dx
// and dw; on a packed x they add into the h rows of the state's gradient,
// where slice_rows's pullback added the same values.
Variable linear(const Variable& x, const Variable& w, const Variable& b) {
  const auto& wv = w.value();
  const auto& bv = b.value();
  const CellOperand xo = cell_operand(x, false);
  if (xo.rows < 0 || wv.ndim() != 2 || bv.ndim() != 1 || x.value().dim(1) != wv.dim(0) ||
      bv.dim(0) != wv.dim(1)) {
    throw std::invalid_argument(
        "linear: expected x [B, I] (or a packed [2B, I] state), w [I, N] and b [N], got " +
        t::to_string(x.value().shape()) + ", " + t::to_string(wv.shape()) + " and " +
        t::to_string(bv.shape()));
  }
  const std::int64_t m = xo.rows, k = wv.dim(0), n = wv.dim(1);
  auto xn = x.node();
  auto wn = w.node();
  auto bn = b.node();
  const NodePtr parents[] = {xn, wn, bn};
  const std::int64_t dims[] = {m, n};
  auto f = make_frame("linear", parents, dims);
  // A packed x is read through a view of its h rows, built once per node:
  // a replayed node reads the same parent buffer.
  if (f.fresh && xo.packed) f.node->scratch.push_back(t::Tensor::view_of(xn->value, 0, {m, k}));
  t::linear_into(f.node->value, xo.packed ? f.node->scratch[0] : xn->value, wv, bv);
  if (f.fresh && f.node->requires_grad) {
    t::Tensor colsum;
    if (bn->requires_grad) colsum = make_scratch({n});
    f.node->backward_fn = [xn, wn, bn, colsum, m, k, n](Node& nn) mutable {
      const double* dy = nn.grad.data().data();
      if (xn->requires_grad) {
        core::gemm(GemmVariant::kNT, grad_ptr(*xn), dy, value_ptr(*wn), m, k, n,
                   /*accumulate=*/true);
      }
      if (wn->requires_grad) {
        core::gemm(GemmVariant::kTN, grad_ptr(*wn), value_ptr(*xn), dy, k, n, m,
                   /*accumulate=*/true);
      }
      if (bn->requires_grad) {
        t::sum_rows_into(colsum, nn.grad);
        bn->ensure_grad().add_(colsum);
      }
    };
  }
  return Variable(std::move(f.handle));
}

Variable slice_rows(const Variable& a, std::int64_t row_begin, std::int64_t row_end) {
  const auto& v = a.value();
  if (v.ndim() != 2) throw std::invalid_argument("slice_rows: expected 2-D input");
  if (row_begin < 0 || row_end > v.dim(0) || row_begin >= row_end) {
    throw std::invalid_argument("slice_rows: bad range [" + std::to_string(row_begin) + ", " +
                                std::to_string(row_end) + ") for " + t::to_string(v.shape()));
  }
  const auto w = v.dim(1);
  const auto offset = static_cast<std::size_t>(row_begin * w);
  const auto count = static_cast<std::size_t>((row_end - row_begin) * w);
  auto an = a.node();
  const NodePtr parents[] = {an};
  const std::int64_t dims[] = {row_end - row_begin, w};
  const double attrs[] = {static_cast<double>(row_begin), static_cast<double>(row_end)};
  auto f = make_frame("slice_rows", parents, dims, attrs);
  // Rows are contiguous in row-major storage: one copy, one axpy back.
  core::copy(f.node->value.data(), v.data().subspan(offset, count));
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [an, offset, count](Node& n) {
      if (!an->requires_grad) return;
      core::axpy(an->ensure_grad().data().subspan(offset, count), n.grad.data(), 1.0);
    };
  }
  return Variable(std::move(f.handle));
}

namespace {

/// lstm_cell's per-element pullback over its batch x hid elements. Per
/// element: dc = dc_out + (dh * o) * (1 - tanh(c)^2), then the gate
/// gradients di = dc * g, df = dc * c_prev, dg = dc * i and do = dh *
/// tanh(c) times each activation's derivative, into d, and with kCarry
/// the carry dc_prev += dc * f. The buffers never alias (d is the input
/// node's gradient, dh and dc_out the h and c rows of the cell's own), so
/// with the carry test a template argument gcc vectorizes the loop; each
/// element's operations are unchanged.
template <bool kCarry>
void cell_pullback(double* __restrict d, double* __restrict dcp, const double* __restrict dh,
                   const double* __restrict dc_out, const double* __restrict gv,
                   const double* __restrict tc, const double* __restrict cp, std::int64_t batch,
                   std::int64_t hid) {
  const std::int64_t g4 = 4 * hid;
  for (std::int64_t r = 0; r < batch; ++r) {
    const double* gi = gv + r * g4;
    double* dr = d + r * g4;
    for (std::int64_t j = 0; j < hid; ++j) {
      const std::int64_t k = r * hid + j;
      const double i = gi[j], fg = gi[hid + j], g = gi[2 * hid + j], o = gi[3 * hid + j];
      const double dc = dc_out[k] + (dh[k] * o) * (1.0 - tc[k] * tc[k]);
      dr[j] = (dc * g) * (i * (1.0 - i));
      dr[hid + j] = (dc * cp[k]) * (fg * (1.0 - fg));
      dr[2 * hid + j] = (dc * i) * (1.0 - g * g);
      dr[3 * hid + j] = (dh[k] * tc[k]) * (o * (1.0 - o));
      if constexpr (kCarry) dcp[k] += dc * fg;
    }
  }
}

}  // namespace

// A cell step records two nodes. "lstm_input" is zx = x @ w_x, reading a
// packed x's h rows in place. "lstm_cell" runs h_prev @ w_h and
// tensor::lstm_{gates,cell,hidden}_into, as serve::LMForward does, into
// the packed state. The input projection keeps a node of its own because
// its pullback must run where the chain's x @ w_x matmul ran: when no loss
// reads the per-step h (a seq2seq encoder), the backward pass reaches the
// projections only after the whole recurrence, so w_x sums its per-step
// gradients in the opposite order from w_h (DESIGN.md §13). Per element,
// the pullbacks keep the arithmetic of the 15-node chain the cell replaces
// (Lstm.FusedCellMatchesUnfusedChain pins it): the chain added every
// interior gradient once into a zeroed buffer, and skipping a `0 +`
// changes no bit that reaches a parameter or a state gradient.
Variable lstm_cell(const Variable& x, const Variable& h_prev, const Variable& c_prev,
                   const Variable& w_x, const Variable& w_h, const Variable& b) {
  const auto& wx = w_x.value();
  const auto& wh = w_h.value();
  const auto& bv = b.value();
  const CellOperand xo = cell_operand(x, false);
  const CellOperand ho = cell_operand(h_prev, false);
  const CellOperand co = cell_operand(c_prev, true);
  const std::int64_t batch = xo.rows;
  const bool ok = wx.ndim() == 2 && wh.ndim() == 2 && bv.ndim() == 1 && wx.dim(1) > 0 &&
                  wx.dim(1) % 4 == 0 && wh.dim(1) == wx.dim(1) && bv.dim(0) == wx.dim(1) &&
                  wh.dim(0) * 4 == wx.dim(1) && batch >= 0 && ho.rows == batch &&
                  co.rows == batch && x.value().dim(1) == wx.dim(0) &&
                  h_prev.value().dim(1) == wh.dim(0) && c_prev.value().dim(1) == wh.dim(0);
  if (!ok) {
    throw std::invalid_argument(
        "lstm_cell: expected x [B, I], h_prev and c_prev [B, H] (or packed [2B, .] states), "
        "w_x [I, 4H], w_h [H, 4H] and b [4H], got " +
        t::to_string(x.value().shape()) + ", " + t::to_string(h_prev.value().shape()) + ", " +
        t::to_string(c_prev.value().shape()) + ", " + t::to_string(wx.shape()) + ", " +
        t::to_string(wh.shape()) + " and " + t::to_string(bv.shape()));
  }
  const std::int64_t hid = wh.dim(0), g4 = 4 * hid;
  auto hn = h_prev.node();
  auto cn = c_prev.node();
  auto whn = w_h.node();
  auto bn = b.node();

  const NodePtr zn = matmul_top_rows("lstm_input", x, batch, w_x).node();
  const NodePtr parents[] = {zn, hn, cn, whn, bn};
  const std::int64_t dims[] = {2 * batch, hid};
  auto f = make_frame(kLstmCellOp, parents, dims);
  Node& node = *f.node;
  std::vector<t::Tensor>& sc = node.scratch;
  if (f.fresh) {
    // Built once per node: views allocate their shapes, and a replayed
    // node reads the same parent buffers.
    sc.push_back(make_scratch({batch, g4}));                        // [0] h_prev @ w_h
    sc.push_back(make_scratch({batch, g4}));                        // [1] gates
    sc.push_back(make_scratch({batch, hid}));                       // [2] tanh(c)
    sc.push_back(t::Tensor::view_of(node.value, 0, {batch, hid}));  // [3] h rows
    sc.push_back(t::Tensor::view_of(node.value, batch * hid, {batch, hid}));  // [4] c rows
    if (co.packed) sc.push_back(t::Tensor::view_of(cn->value, co.offset, {batch, hid}));  // [5]
  }
  core::gemm(GemmVariant::kNN, sc[0].data().data(), value_ptr(*hn), value_ptr(*whn), batch, g4,
             hid);
  t::lstm_gates_into(sc[1], zn->value, sc[0], bv);
  t::lstm_cell_into(sc[4], sc[1], co.packed ? sc[5] : c_prev.value());
  t::lstm_hidden_into(sc[3], sc[2], sc[1], sc[4]);
  if (f.fresh && node.requires_grad) {
    t::Tensor colsum;
    if (bn->requires_grad) colsum = make_scratch({g4});
    const std::int64_t c_off = co.offset;
    f.node->backward_fn = [zn, hn, cn, whn, bn, colsum, batch, hid, g4, c_off](Node& n) mutable {
      // dz is written (not added) straight into the input node's gradient:
      // this node is the only one that reads that node.
      t::Tensor& dz = zn->ensure_grad();
      double* d = dz.data().data();
      const double* dh = n.grad.data().data();
      const double* gv = n.scratch[1].data().data();
      const double* tc = n.scratch[2].data().data();
      const double* cp = value_ptr(*cn) + c_off;
      if (cn->requires_grad) {
        cell_pullback<true>(d, grad_ptr(*cn) + c_off, dh, dh + batch * hid, gv, tc, cp, batch,
                            hid);
      } else {
        cell_pullback<false>(d, nullptr, dh, dh + batch * hid, gv, tc, cp, batch, hid);
      }
      if (hn->requires_grad) {
        core::gemm(GemmVariant::kNT, grad_ptr(*hn), d, value_ptr(*whn), batch, hid, g4,
                   /*accumulate=*/true);
      }
      if (whn->requires_grad) {
        core::gemm(GemmVariant::kTN, grad_ptr(*whn), value_ptr(*hn), d, hid, g4, batch,
                   /*accumulate=*/true);
      }
      if (bn->requires_grad) {
        t::sum_rows_into(colsum, dz);
        bn->ensure_grad().add_(colsum);
      }
    };
  }
  return Variable(std::move(f.handle));
}

namespace {

/// Max of the c values at x (the softmax shift), starting from the first:
/// a fixed start below some row's values would stand in for its max.
double row_max(const double* x, std::int64_t c) {
  double mx = x[0];
  for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, x[j]);
  return mx;
}

/// From |max(x)| = 2^53 on, doubles lie 2 or more apart, so log z +
/// max(x) loses log z (and a row of ties reads loss 0): such a row's loss
/// and probabilities are taken relative to its max instead. Every row
/// whose max lies below it in magnitude keeps the historical arithmetic.
constexpr double kHugeLogit = 0x1p53;

}  // namespace

Variable softmax_cross_entropy(const Variable& logits, const std::vector<std::int64_t>& labels) {
  return softmax_cross_entropy(std::span<const Variable>(&logits, 1), labels);
}

Variable softmax_cross_entropy(std::span<const Variable> steps,
                               const std::vector<std::int64_t>& labels) {
  if (steps.empty()) throw std::invalid_argument("softmax_cross_entropy: no logits");
  const auto& v0 = steps[0].value();
  if (v0.ndim() != 2) throw std::invalid_argument("softmax_cross_entropy: expected 2-D logits");
  for (const auto& s : steps) {
    if (s.value().shape() != v0.shape()) {
      throw std::invalid_argument("softmax_cross_entropy: step blocks " +
                                  t::to_string(v0.shape()) + " and " +
                                  t::to_string(s.value().shape()) + " differ");
    }
  }
  const auto nsteps = static_cast<std::int64_t>(steps.size());
  const auto rows = v0.dim(0), c = v0.dim(1), m = rows * nsteps;
  if (static_cast<std::int64_t>(labels.size()) != m) {
    throw std::invalid_argument("softmax_cross_entropy: batch " + std::to_string(m) + " vs " +
                                std::to_string(labels.size()) + " labels");
  }
  // Validate before recording: a throw after make_frame would leave a
  // half-built (closure-less) node on the tape for later steps to replay.
  for (const auto y : labels) {
    if (y < 0 || y >= c) throw std::out_of_range("softmax_cross_entropy: label out of range");
  }
  std::vector<NodePtr>& parents = parent_list(steps);
  const std::int64_t one[] = {1};
  auto f = make_frame("softmax_cross_entropy", parents, one);
  parents.clear();
  if (f.fresh) f.node->scratch.push_back(make_scratch({m, c}));  // cached probabilities
  // Labels change every step: refresh the node's integer payload on both
  // fresh recording and replay.
  f.node->ints.assign(labels.begin(), labels.end());

  // Row i = b*T + t of the stacked logits is row b of step block t.
  const auto logit_row = [&steps, c](std::int64_t b, std::int64_t t) {
    return steps[static_cast<std::size_t>(t)].value().data().data() + b * c;
  };
  // Forward: mean_i [ logsumexp(x_i) - x_i[y_i] ]. Cache probabilities for
  // the pullback: d/dx = (softmax(x) - onehot(y)) / m.
  // The probs scratch first holds the max-shifted rows, exp'd in place to
  // sum each row; then x - logsumexp(x), exp'd in place again.
  t::Tensor& probs = f.node->scratch[0];
  double* p = probs.data().data();
  for (std::int64_t b = 0; b < rows; ++b) {
    for (std::int64_t t = 0; t < nsteps; ++t) {
      const double* x = logit_row(b, t);
      double* pi = p + (b * nsteps + t) * c;
      const double mx = row_max(x, c);
      for (std::int64_t j = 0; j < c; ++j) pi[j] = x[j] - mx;
    }
  }
  core::exp(probs.data(), probs.data());
  double loss = 0.0;
  for (std::int64_t b = 0; b < rows; ++b) {
    for (std::int64_t t = 0; t < nsteps; ++t) {
      const std::int64_t i = b * nsteps + t;
      const double* x = logit_row(b, t);
      double* pi = p + i * c;
      const auto y = labels[static_cast<std::size_t>(i)];
      double z = 0.0;
      for (std::int64_t j = 0; j < c; ++j) z += pi[j];
      const double mx = row_max(x, c);
      if (std::abs(mx) < kHugeLogit) {
        const double logz = std::log(z) + mx;
        loss += logz - x[y];
        for (std::int64_t j = 0; j < c; ++j) pi[j] = x[j] - logz;
      } else {
        const double logz = std::log(z);
        loss += logz - (x[y] - mx);
        for (std::int64_t j = 0; j < c; ++j) pi[j] = (x[j] - mx) - logz;
      }
    }
  }
  core::exp(probs.data(), probs.data());
  loss /= static_cast<double>(m);
  f.node->value[0] = loss;
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [rows, nsteps, m, c](Node& n) {
      const double* probs_ptr = n.scratch[0].data().data();
      const double scale = n.grad[0] / static_cast<double>(m);
      for (std::int64_t t = 0; t < nsteps; ++t) {
        Node& step = *n.parents[static_cast<std::size_t>(t)];
        if (!step.requires_grad) continue;
        double* g = grad_ptr(step);
        for (std::int64_t b = 0; b < rows; ++b) {
          const std::int64_t i = b * nsteps + t;
          const auto y = n.ints[static_cast<std::size_t>(i)];
          const double* pi = probs_ptr + i * c;
          for (std::int64_t j = 0; j < c; ++j) {
            g[b * c + j] += scale * (pi[j] - (j == y ? 1.0 : 0.0));
          }
        }
      }
    };
  }
  return Variable(std::move(f.handle));
}

Variable embedding(const Variable& weight, const std::vector<std::int64_t>& indices) {
  const auto& w = weight.value();
  if (w.ndim() != 2) throw std::invalid_argument("embedding: weight must be 2-D [V, E]");
  const auto vsize = w.dim(0), e = w.dim(1);
  const auto b = static_cast<std::int64_t>(indices.size());
  // Validate before recording: a throw after make_frame would leave a
  // half-built (closure-less) node on the tape for later steps to replay.
  for (const auto idx : indices) {
    if (idx < 0 || idx >= vsize) throw std::out_of_range("embedding: index out of range");
  }
  auto wn = weight.node();
  const NodePtr parents[] = {wn};
  const std::int64_t dims[] = {b, e};
  auto f = make_frame("embedding", parents, dims);
  f.node->ints.assign(indices.begin(), indices.end());
  auto& out = f.node->value;
  for (std::int64_t i = 0; i < b; ++i) {
    const auto idx = indices[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < e; ++j) out[i * e + j] = w[idx * e + j];
  }
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [wn, e](Node& n) {
      if (!wn->requires_grad) return;
      auto& g = wn->ensure_grad();
      const auto nb = static_cast<std::int64_t>(n.ints.size());
      for (std::int64_t i = 0; i < nb; ++i) {
        const auto idx = n.ints[static_cast<std::size_t>(i)];
        for (std::int64_t j = 0; j < e; ++j) g[idx * e + j] += n.grad[i * e + j];
      }
    };
  }
  return Variable(std::move(f.handle));
}

// Conv value-path math (ConvDims/im2col/col2im/bias-transpose) lives in
// core/conv_math.hpp.
using core::Conv2dDims;
using core::col2im_add;
using core::im2col_into;

Variable conv2d(const Variable& input, const Variable& weight, const Variable& bias,
                std::int64_t stride, std::int64_t pad) {
  const auto& x = input.value();
  const auto& w = weight.value();
  const auto& b = bias.value();
  if (x.ndim() != 4 || w.ndim() != 4 || b.ndim() != 1) {
    throw std::invalid_argument("conv2d: expected input [N,C,H,W], weight [F,C,KH,KW], bias [F]");
  }
  if (stride < 1) throw std::invalid_argument("conv2d: stride must be >= 1");
  const Conv2dDims d = core::conv2d_dims(x.dim(0), x.dim(1), x.dim(2), x.dim(3), w.dim(0),
                                         w.dim(2), w.dim(3), stride, pad);
  if (w.dim(1) != d.c) throw std::invalid_argument("conv2d: channel mismatch");
  if (b.dim(0) != d.f) throw std::invalid_argument("conv2d: bias size mismatch");
  if (d.oh < 1 || d.ow < 1) throw std::invalid_argument("conv2d: kernel larger than padded input");

  auto xn = input.node();
  auto wn = weight.node();
  auto bn = bias.node();
  const NodePtr parents[] = {xn, wn, bn};
  const std::int64_t dims[] = {d.n, d.f, d.oh, d.ow};
  const double attrs[] = {static_cast<double>(stride), static_cast<double>(pad)};
  auto f = make_frame("conv2d", parents, dims, attrs);
  const std::int64_t rows = d.n * d.oh * d.ow;
  const std::int64_t ckk = d.c * d.kh * d.kw;
  if (f.fresh) {
    f.node->scratch.push_back(make_scratch({rows, ckk}));      // [0] im2col matrix
    f.node->scratch.push_back(wn->value.reshape({d.f, ckk}));  // [1] weight view [F, CKK]
    f.node->scratch.push_back(make_scratch({rows, d.f}));      // [2] forward product col @ Wᵀ
  }
  // The weight view aliases the parameter's storage; if the parameter was
  // migrated (e.g. a new ParamArena flattened it), re-point the view.
  if (!f.node->scratch[1].shares_storage_with(wn->value)) {
    f.node->scratch[1] = wn->value.reshape({d.f, ckk});
  }
  t::Tensor& col = f.node->scratch[0];
  const t::Tensor& wmat = f.node->scratch[1];

  im2col_into(col, x, d);
  t::Tensor& outmat = f.node->scratch[2];
  // col @ Wᵀ through the NT variant: the packing step absorbs the
  // transpose that used to be materialized into a [CKK, F] scratch.
  t::matmul_nt_into(outmat, col, wmat);
  // Add bias and transpose to NCHW.
  core::conv2d_bias_nchw_into(f.node->value, outmat, b, d);

  if (f.fresh && f.node->requires_grad) {
    t::Tensor doutmat = make_scratch({rows, d.f});
    t::Tensor bias_sum, dw, dcol;
    if (bn->requires_grad) bias_sum = make_scratch({d.f});
    if (wn->requires_grad) dw = make_scratch({d.f, ckk});
    if (xn->requires_grad) dcol = make_scratch({rows, ckk});
    t::Tensor col_ref = col;  // shares storage with scratch[0]
    f.node->backward_fn = [xn, wn, bn, d, col_ref, doutmat, bias_sum, dw,
                           dcol](Node& n) mutable {
      // Reassemble dOut into matrix form [N*OH*OW, F].
      for (std::int64_t nn = 0; nn < d.n; ++nn)
        for (std::int64_t oy = 0; oy < d.oh; ++oy)
          for (std::int64_t ox = 0; ox < d.ow; ++ox) {
            const auto row = (nn * d.oh + oy) * d.ow + ox;
            for (std::int64_t fi = 0; fi < d.f; ++fi)
              doutmat[row * d.f + fi] = n.grad[((nn * d.f + fi) * d.oh + oy) * d.ow + ox];
          }
      if (bn->requires_grad) {
        t::sum_rows_into(bias_sum, doutmat);
        bn->ensure_grad().add_(bias_sum);
      }
      if (wn->requires_grad) {
        t::matmul_tn_into(dw, doutmat, col_ref);  // dOutᵀ @ col = [F, CKK]
        core::axpy(wn->ensure_grad().data(), dw.data(), 1.0);
      }
      if (xn->requires_grad) {
        // n.scratch[1] is the weight view, refreshed by the forward pass.
        t::matmul_into(dcol, doutmat, n.scratch[1]);  // [N*OH*OW, CKK]
        col2im_add(dcol, d, xn->ensure_grad());
      }
    };
  }
  return Variable(std::move(f.handle));
}

Variable batch_norm2d(const Variable& input, const Variable& gamma, const Variable& beta,
                      double eps) {
  const auto& x = input.value();
  if (x.ndim() != 4) throw std::invalid_argument("batch_norm2d: expected [N,C,H,W]");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (gamma.value().ndim() != 1 || gamma.value().dim(0) != c || beta.value().ndim() != 1 ||
      beta.value().dim(0) != c) {
    throw std::invalid_argument("batch_norm2d: gamma/beta must be rank-1 of size C");
  }
  const auto m = n * h * w;  // elements per channel
  const double inv_m = 1.0 / static_cast<double>(m);

  auto xn = input.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  const NodePtr parents[] = {xn, gn, bn};
  const double attrs[] = {eps};
  auto f = make_frame("batch_norm2d", parents, dims_of(x), attrs);
  if (f.fresh) {
    f.node->scratch.push_back(make_scratch({c}));           // [0] per-channel mean
    f.node->scratch.push_back(make_scratch({c}));           // [1] per-channel 1/std
    f.node->scratch.push_back(make_scratch(dims_of(x)));    // [2] normalized activations
  }
  t::Tensor& mean = f.node->scratch[0];
  t::Tensor& inv_std = f.node->scratch[1];
  t::Tensor& xhat = f.node->scratch[2];

  // Channel statistics and normalized activations (cached for backward),
  // from core/conv_math.
  core::batchnorm2d_stats_into(mean, inv_std, x, n, c, h, w, eps);
  core::batchnorm2d_normalize_into(f.node->value, xhat, x, gamma.value(), beta.value(), mean,
                                   inv_std, n, c, h, w);

  if (f.fresh && f.node->requires_grad) {
    t::Tensor xhat_ref = xhat;
    t::Tensor inv_std_ref = inv_std;
    f.node->backward_fn = [xn, gn, bn, xhat_ref, inv_std_ref, n, c, h, w, inv_m](Node& node) {
      // Standard BN backward; per channel:
      //   dgamma = sum dy*xhat,  dbeta = sum dy,
      //   dx = gamma*inv_std/m * (m*dy - dbeta - xhat*dgamma).
      for (std::int64_t ch = 0; ch < c; ++ch) {
        double dgamma = 0.0, dbeta = 0.0;
        for (std::int64_t i = 0; i < n; ++i)
          for (std::int64_t k = 0; k < h * w; ++k) {
            const auto idx = (i * c + ch) * h * w + k;
            dgamma += node.grad[idx] * xhat_ref[idx];
            dbeta += node.grad[idx];
          }
        if (gn->requires_grad) gn->ensure_grad()[ch] += dgamma;
        if (bn->requires_grad) bn->ensure_grad()[ch] += dbeta;
        if (xn->requires_grad) {
          auto& gx = xn->ensure_grad();
          const double scale = gn->value[ch] * inv_std_ref[ch] * inv_m;
          const double mtotal = 1.0 / inv_m;
          for (std::int64_t i = 0; i < n; ++i)
            for (std::int64_t k = 0; k < h * w; ++k) {
              const auto idx = (i * c + ch) * h * w + k;
              gx[idx] += scale * (mtotal * node.grad[idx] - dbeta - xhat_ref[idx] * dgamma);
            }
        }
      }
    };
  }
  return Variable(std::move(f.handle));
}

Variable global_avg_pool(const Variable& input) {
  const auto& x = input.value();
  if (x.ndim() != 4) throw std::invalid_argument("global_avg_pool: expected [N,C,H,W]");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const double inv = 1.0 / static_cast<double>(h * w);
  auto xn = input.node();
  const NodePtr parents[] = {xn};
  const std::int64_t dims[] = {n, c};
  auto f = make_frame("global_avg_pool", parents, dims);
  core::global_avg_pool_into(f.node->value, x, n, c, h, w);
  if (f.fresh && f.node->requires_grad) {
    f.node->backward_fn = [xn, n, c, h, w, inv](Node& nn) {
      if (!xn->requires_grad) return;
      auto& g = xn->ensure_grad();
      for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t j = 0; j < c; ++j) {
          const double gv = nn.grad[i * c + j] * inv;
          for (std::int64_t k = 0; k < h * w; ++k) g[(i * c + j) * h * w + k] += gv;
        }
    };
  }
  return Variable(std::move(f.handle));
}

}  // namespace yf::autograd
