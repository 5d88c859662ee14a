#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/gemm.hpp"
#include "core/kernels.hpp"
#include "core/parallel.hpp"

namespace yf::tensor {
namespace {

void check_out_shape(const Tensor& out, const Shape& expected, const char* op) {
  if (out.shape() != expected) {
    throw std::invalid_argument(std::string(op) + ": output shape " + to_string(out.shape()) +
                                " does not match expected " + to_string(expected));
  }
}

template <typename F>
void zip_into(Tensor& out, const Tensor& a, const Tensor& b, const char* op, F&& f) {
  check_same_shape(a, b, op);
  check_out_shape(out, a.shape(), op);
  core::binary(out.data(), a.data(), b.data(), std::forward<F>(f));
}

template <typename F>
void unary_into(Tensor& out, const Tensor& a, const char* op, F&& f) {
  check_out_shape(out, a.shape(), op);
  core::map(out.data(), a.data(), std::forward<F>(f));
}

template <typename F>
Tensor unary(const Tensor& a, F&& f) {
  Tensor out(a.shape());
  core::map(out.data(), a.data(), std::forward<F>(f));
  return out;
}

}  // namespace

void copy_into(Tensor& out, const Tensor& a) {
  if (out.size() != a.size()) {
    throw std::invalid_argument("copy_into: size mismatch " + to_string(out.shape()) + " vs " +
                                to_string(a.shape()));
  }
  core::copy(out.data(), a.data());
}

void add_into(Tensor& out, const Tensor& a, const Tensor& b) {
  zip_into(out, a, b, "add", [](double x, double y) { return x + y; });
}
void sub_into(Tensor& out, const Tensor& a, const Tensor& b) {
  zip_into(out, a, b, "sub", [](double x, double y) { return x - y; });
}
void mul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  zip_into(out, a, b, "mul", [](double x, double y) { return x * y; });
}

void mul_scalar_into(Tensor& out, const Tensor& a, double s) {
  unary_into(out, a, "mul_scalar", [s](double x) { return x * s; });
}
void square_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, "square", [](double x) { return x * x; });
}
void tanh_into(Tensor& out, const Tensor& a) {
  check_out_shape(out, a.shape(), "tanh");
  core::tanh(out.data(), a.data());
}
void sigmoid_into(Tensor& out, const Tensor& a) {
  check_out_shape(out, a.shape(), "sigmoid");
  core::sigmoid(out.data(), a.data());
}
void relu_into(Tensor& out, const Tensor& a) {
  unary_into(out, a, "relu", [](double x) { return x > 0.0 ? x : 0.0; });
}

Tensor square(const Tensor& a) {
  return unary(a, [](double x) { return x * x; });
}

double sum(const Tensor& a) { return core::sum(a.data()); }

double mean(const Tensor& a) {
  if (a.size() == 0) throw std::invalid_argument("mean: empty tensor");
  return sum(a) / static_cast<double>(a.size());
}

double max(const Tensor& a) {
  if (a.size() == 0) throw std::invalid_argument("max: empty tensor");
  double m = -std::numeric_limits<double>::infinity();
  for (double x : a.data()) m = std::max(m, x);
  return m;
}

double min(const Tensor& a) {
  if (a.size() == 0) throw std::invalid_argument("min: empty tensor");
  double m = std::numeric_limits<double>::infinity();
  for (double x : a.data()) m = std::min(m, x);
  return m;
}

double norm(const Tensor& a) { return std::sqrt(core::squared_norm(a.data())); }

double dot(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "dot");
  return core::dot(a.data(), b.data());
}

namespace {

/// Shared validation for the three matmul layouts. Extracts (m, n, k)
/// from the operand shapes given where each one keeps its k axis.
struct MatmulDims {
  std::int64_t m, n, k;
};

MatmulDims check_matmul(const Tensor& out, const Tensor& a, const Tensor& b,
                        core::GemmVariant v, const char* op) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument(std::string(op) + ": expected 2-D tensors, got " +
                                to_string(a.shape()) + " and " + to_string(b.shape()));
  }
  MatmulDims d;
  d.m = v == core::GemmVariant::kTN ? a.dim(1) : a.dim(0);
  d.k = v == core::GemmVariant::kTN ? a.dim(0) : a.dim(1);
  d.n = v == core::GemmVariant::kNT ? b.dim(0) : b.dim(1);
  const auto bk = v == core::GemmVariant::kNT ? b.dim(1) : b.dim(0);
  if (d.k != bk) {
    throw std::invalid_argument(std::string(op) + ": inner dimension mismatch " +
                                to_string(a.shape()) + " vs " + to_string(b.shape()));
  }
  if (out.ndim() != 2 || out.dim(0) != d.m || out.dim(1) != d.n) {
    throw std::invalid_argument(std::string(op) + ": output shape " + to_string(out.shape()) +
                                " does not match [" + std::to_string(d.m) + ", " +
                                std::to_string(d.n) + "]");
  }
  return d;
}

void gemm_into(Tensor& out, const Tensor& a, const Tensor& b, core::GemmVariant v,
               const char* op) {
  const MatmulDims d = check_matmul(out, a, b, v, op);
  // The GEMM overwrites out (beta = 0 on the first k-panel), so no
  // zeroing pass: a dirty reused output is as good as a fresh one.
  core::gemm(v, out.data().data(), a.data().data(), b.data().data(), d.m, d.n, d.k);
}

}  // namespace

void matmul_into(Tensor& out, const Tensor& a, const Tensor& b) {
  gemm_into(out, a, b, core::GemmVariant::kNN, "matmul");
}

void matmul_nt_into(Tensor& out, const Tensor& a, const Tensor& b) {
  gemm_into(out, a, b, core::GemmVariant::kNT, "matmul_nt");
}

void matmul_tn_into(Tensor& out, const Tensor& a, const Tensor& b) {
  gemm_into(out, a, b, core::GemmVariant::kTN, "matmul_tn");
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul: expected 2-D tensors, got " + to_string(a.shape()) +
                                " and " + to_string(b.shape()));
  }
  Tensor c(Shape{a.dim(0), b.dim(1)});
  matmul_into(c, a, b);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul_nt: expected 2-D tensors, got " + to_string(a.shape()) +
                                " and " + to_string(b.shape()));
  }
  Tensor c(Shape{a.dim(0), b.dim(0)});
  matmul_nt_into(c, a, b);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 2 || b.ndim() != 2) {
    throw std::invalid_argument("matmul_tn: expected 2-D tensors, got " + to_string(a.shape()) +
                                " and " + to_string(b.shape()));
  }
  Tensor c(Shape{a.dim(1), b.dim(1)});
  matmul_tn_into(c, a, b);
  return c;
}

void transpose_into(Tensor& out, const Tensor& a) {
  if (a.ndim() != 2) {
    throw std::invalid_argument("transpose: expected 2-D tensor, got " + to_string(a.shape()));
  }
  const auto m = a.dim(0), n = a.dim(1);
  if (out.ndim() != 2 || out.dim(0) != n || out.dim(1) != m) {
    throw std::invalid_argument("transpose: output shape " + to_string(out.shape()) +
                                " does not match [" + std::to_string(n) + ", " +
                                std::to_string(m) + "]");
  }
  const auto* pa = a.data().data();
  auto* pt = out.data().data();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) pt[j * m + i] = pa[i * n + j];
}

Tensor transpose(const Tensor& a) {
  if (a.ndim() != 2) {
    throw std::invalid_argument("transpose: expected 2-D tensor, got " + to_string(a.shape()));
  }
  Tensor t(Shape{a.dim(1), a.dim(0)});
  transpose_into(t, a);
  return t;
}

void add_row_broadcast_into(Tensor& out, const Tensor& a, const Tensor& bias) {
  if (a.ndim() != 2 || bias.ndim() != 1 || a.dim(1) != bias.dim(0)) {
    throw std::invalid_argument("add_row_broadcast: incompatible shapes " + to_string(a.shape()) +
                                " and " + to_string(bias.shape()));
  }
  check_out_shape(out, a.shape(), "add_row_broadcast");
  const auto m = a.dim(0), n = a.dim(1);
  const auto* pa = a.data().data();
  const auto* pb = bias.data().data();
  auto* po = out.data().data();
  // Parallel over rows: each chunk streams whole rows, so the inner loop
  // stays a plain add with no per-element index arithmetic.
  const std::int64_t row_grain =
      std::max<std::int64_t>(1, core::kDefaultGrain / std::max<std::int64_t>(1, n));
  core::parallel_for(m, row_grain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i)
      for (std::int64_t j = 0; j < n; ++j) po[i * n + j] = pa[i * n + j] + pb[j];
  });
}

void sum_rows_into(Tensor& out, const Tensor& a) {
  if (a.ndim() != 2) {
    throw std::invalid_argument("sum_rows: expected 2-D tensor, got " + to_string(a.shape()));
  }
  const auto m = a.dim(0), n = a.dim(1);
  if (out.ndim() != 1 || out.dim(0) != n) {
    throw std::invalid_argument("sum_rows: output shape " + to_string(out.shape()) +
                                " does not match [" + std::to_string(n) + "]");
  }
  const auto* pa = a.data().data();
  auto* po = out.data().data();
  core::fill(out.data(), 0.0);
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) po[j] += pa[i * n + j];
}

namespace {

/// Operand checks of the LSTM cell kernels; each returns H.
std::int64_t check_lstm_gates(const Tensor& zx, const Tensor& zh, const Tensor& b) {
  if (zx.ndim() != 2 || zx.dim(1) == 0 || zx.dim(1) % 4 != 0 || zh.shape() != zx.shape() ||
      b.ndim() != 1 || b.dim(0) != zx.dim(1)) {
    throw std::invalid_argument("lstm_gates: expected zx and zh [B, 4H] and b [4H], got " +
                                to_string(zx.shape()) + ", " + to_string(zh.shape()) + " and " +
                                to_string(b.shape()));
  }
  return zx.dim(1) / 4;
}

std::int64_t check_lstm_state(const Tensor& gates, const Tensor& state, const char* op) {
  if (gates.ndim() != 2 || gates.dim(1) == 0 || gates.dim(1) % 4 != 0 || state.ndim() != 2 ||
      state.dim(0) != gates.dim(0) || 4 * state.dim(1) != gates.dim(1)) {
    throw std::invalid_argument(std::string(op) +
                                ": expected gates [B, 4H] and state [B, H], got " +
                                to_string(gates.shape()) + " and " + to_string(state.shape()));
  }
  return state.dim(1);
}

}  // namespace

void lstm_gates_into(Tensor& gates, const Tensor& zx, const Tensor& zh, const Tensor& b) {
  const auto h = check_lstm_gates(zx, zh, b);
  check_out_shape(gates, zx.shape(), "lstm_gates");
  const auto m = zx.dim(0), n = 4 * h;
  const auto* px = zx.data().data();
  const auto* ph = zh.data().data();
  const auto* pb = b.data().data();
  auto* pg = gates.data().data();
  const auto width = static_cast<std::size_t>(h);
  for (std::int64_t i = 0; i < m; ++i) {
    double* row = pg + i * n;
    for (std::int64_t j = 0; j < n; ++j) row[j] = (px[i * n + j] + ph[i * n + j]) + pb[j];
    // The activations act per element, so row segments give the same bits
    // as whole-tensor calls on the slices.
    const std::span<double> ifg(row, 2 * width), g(row + 2 * h, width), o(row + 3 * h, width);
    core::sigmoid(ifg, ifg);  // i | f
    core::tanh(g, g);
    core::sigmoid(o, o);
  }
}

void lstm_cell_into(Tensor& c, const Tensor& gates, const Tensor& c_prev) {
  const auto h = check_lstm_state(gates, c_prev, "lstm_cell");
  check_out_shape(c, c_prev.shape(), "lstm_cell");
  const auto m = c_prev.dim(0);
  const auto* pg = gates.data().data();
  const auto* pc = c_prev.data().data();
  auto* po = c.data().data();
  for (std::int64_t i = 0; i < m; ++i) {
    const double* gi = pg + i * 4 * h;
    const double* gf = gi + h;
    const double* gg = gi + 2 * h;
    for (std::int64_t j = 0; j < h; ++j) {
      po[i * h + j] = (gf[j] * pc[i * h + j]) + (gi[j] * gg[j]);
    }
  }
}

void lstm_hidden_into(Tensor& h, Tensor& tc, const Tensor& gates, const Tensor& c) {
  const auto hid = check_lstm_state(gates, c, "lstm_hidden");
  check_out_shape(h, c.shape(), "lstm_hidden");
  check_out_shape(tc, c.shape(), "lstm_hidden");
  core::tanh(tc.data(), c.data());
  const auto m = c.dim(0);
  const auto* pg = gates.data().data();
  const auto* pt = tc.data().data();
  auto* po = h.data().data();
  for (std::int64_t i = 0; i < m; ++i) {
    const double* go = pg + i * 4 * hid + 3 * hid;
    for (std::int64_t j = 0; j < hid; ++j) po[i * hid + j] = go[j] * pt[i * hid + j];
  }
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  double m = 0.0;
  auto ia = a.data();
  auto ib = b.data();
  for (std::size_t i = 0; i < ia.size(); ++i) m = std::max(m, std::abs(ia[i] - ib[i]));
  return m;
}

bool allclose(const Tensor& a, const Tensor& b, double atol, double rtol) {
  if (a.shape() != b.shape()) return false;
  auto ia = a.data();
  auto ib = b.data();
  for (std::size_t i = 0; i < ia.size(); ++i) {
    if (std::abs(ia[i] - ib[i]) > atol + rtol * std::abs(ib[i])) return false;
  }
  return true;
}

}  // namespace yf::tensor
