// Span front-end over the backend dispatch table (DESIGN.md §4): this
// file validates arguments, picks the parallel grain, and partitions
// elementwise sweeps over the pool; the per-chunk arithmetic lives in
// src/core/kernels/kernels_{scalar,avx2}.cpp behind kernel_table.hpp.
// Reductions stay on the calling thread: their lane-blocked order is
// the determinism contract, and one core streams memory fast enough
// that fanning them out would only buy nondeterminism.
#include "core/kernels.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/kernels/kernel_table.hpp"

namespace yf::core {

namespace {

void check_same_size(std::span<const double> a, std::span<const double> b, const char* op) {
  if (a.size() != b.size()) {
    throw std::invalid_argument(std::string(op) + ": span size mismatch " +
                                std::to_string(a.size()) + " vs " + std::to_string(b.size()));
  }
}

/// Elementwise grain for the active backend: a SIMD sweep retires ~4
/// elements per cycle, so a chunk must be larger before pool dispatch
/// amortizes (see kSimdGrain in core/parallel.hpp).
std::int64_t elementwise_grain() {
  return active_kernel_backend() == KernelBackend::kSimd ? kSimdGrain : kDefaultGrain;
}

/// dst = f(src) through one transcendental table entry.
void unary_sweep(std::span<double> dst, std::span<const double> src,
                 void (*kernel)(double*, const double*, std::int64_t), const char* op) {
  check_same_size(dst, src, op);
  double* d = dst.data();
  const double* s = src.data();
  parallel_for(static_cast<std::int64_t>(dst.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) { kernel(d + lo, s + lo, hi - lo); });
}

}  // namespace

void fill(std::span<double> x, double v) {
  const auto& table = detail::active_table();
  double* p = x.data();
  parallel_for(static_cast<std::int64_t>(x.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) { table.fill(p + lo, hi - lo, v); });
}

void copy(std::span<double> dst, std::span<const double> src) {
  check_same_size(dst, src, "copy");
  const auto& table = detail::active_table();
  double* d = dst.data();
  const double* s = src.data();
  parallel_for(static_cast<std::int64_t>(dst.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) { table.copy(d + lo, s + lo, hi - lo); });
}

void scale(std::span<double> x, double a) {
  const auto& table = detail::active_table();
  double* p = x.data();
  parallel_for(static_cast<std::int64_t>(x.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) { table.scale(p + lo, hi - lo, a); });
}

void axpy(std::span<double> y, std::span<const double> x, double a) {
  check_same_size(y, x, "axpy");
  const auto& table = detail::active_table();
  double* py = y.data();
  const double* px = x.data();
  parallel_for(static_cast<std::int64_t>(y.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) { table.axpy(py + lo, px + lo, hi - lo, a); });
}

void exp(std::span<double> dst, std::span<const double> src) {
  unary_sweep(dst, src, detail::active_table().exp, "exp");
}

void sigmoid(std::span<double> dst, std::span<const double> src) {
  unary_sweep(dst, src, detail::active_table().sigmoid, "sigmoid");
}

void tanh(std::span<double> dst, std::span<const double> src) {
  unary_sweep(dst, src, detail::active_table().tanh, "tanh");
}

double sum(std::span<const double> x) {
  return detail::active_table().sum(x.data(), static_cast<std::int64_t>(x.size()));
}

double squared_norm(std::span<const double> x) {
  return detail::active_table().squared_norm(x.data(), static_cast<std::int64_t>(x.size()));
}

double dot(std::span<const double> a, std::span<const double> b) {
  check_same_size(a, b, "dot");
  return detail::active_table().dot(a.data(), b.data(), static_cast<std::int64_t>(a.size()));
}

double max_abs(std::span<const double> x) {
  return detail::active_table().max_abs(x.data(), static_cast<std::int64_t>(x.size()));
}

void ewma_update(std::span<double> avg, std::span<const double> x, double beta) {
  check_same_size(avg, x, "ewma_update");
  const auto& table = detail::active_table();
  double* pa = avg.data();
  const double* px = x.data();
  parallel_for(static_cast<std::int64_t>(avg.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) {
                 table.ewma(pa + lo, px + lo, hi - lo, beta);
               });
}

void ewma_update_moments(std::span<double> m1, std::span<double> m2, std::span<const double> x,
                         double beta) {
  check_same_size(m1, x, "ewma_update_moments");
  check_same_size(m2, x, "ewma_update_moments");
  const auto& table = detail::active_table();
  double* p1 = m1.data();
  double* p2 = m2.data();
  const double* px = x.data();
  parallel_for(static_cast<std::int64_t>(x.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) {
                 table.ewma_moments(p1 + lo, p2 + lo, px + lo, hi - lo, beta);
               });
}

double debiased_variance_sum(std::span<const double> m1_raw, std::span<const double> m2_raw,
                             double inv1, double inv2) {
  check_same_size(m1_raw, m2_raw, "debiased_variance_sum");
  return detail::active_table().debiased_variance_sum(
      m1_raw.data(), m2_raw.data(), static_cast<std::int64_t>(m1_raw.size()), inv1, inv2);
}

double clip_scale(std::span<double> x, double max_norm) {
  if (max_norm <= 0.0) throw std::invalid_argument("clip_scale: max_norm must be positive");
  const double norm = std::sqrt(squared_norm(x));
  if (norm > max_norm) scale(x, max_norm / norm);
  return norm;
}

void sgd_step(std::span<double> x, std::span<const double> g, double lr) {
  axpy(x, g, -lr);
}

void momentum_step(std::span<double> x, std::span<double> v, std::span<const double> g, double lr,
                   double mu, bool nesterov) {
  check_same_size(x, g, "momentum_step");
  check_same_size(x, v, "momentum_step");
  const auto& table = detail::active_table();
  double* px = x.data();
  double* pv = v.data();
  const double* pg = g.data();
  parallel_for(static_cast<std::int64_t>(x.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) {
                 table.momentum(px + lo, pv + lo, pg + lo, hi - lo, lr, mu, nesterov);
               });
}

void adam_step(std::span<double> x, std::span<double> m, std::span<double> v,
               std::span<const double> g, double lr, double beta1, double beta2, double bc1,
               double bc2, double eps) {
  check_same_size(x, g, "adam_step");
  check_same_size(x, m, "adam_step");
  check_same_size(x, v, "adam_step");
  const auto& table = detail::active_table();
  double* px = x.data();
  double* pm = m.data();
  double* pv = v.data();
  const double* pg = g.data();
  parallel_for(static_cast<std::int64_t>(x.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) {
                 table.adam(px + lo, pm + lo, pv + lo, pg + lo, hi - lo, lr, beta1, beta2, bc1,
                            bc2, eps);
               });
}

void adagrad_step(std::span<double> x, std::span<double> accum, std::span<const double> g,
                  double lr, double eps) {
  check_same_size(x, g, "adagrad_step");
  check_same_size(x, accum, "adagrad_step");
  const auto& table = detail::active_table();
  double* px = x.data();
  double* pa = accum.data();
  const double* pg = g.data();
  parallel_for(static_cast<std::int64_t>(x.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) {
                 table.adagrad(px + lo, pa + lo, pg + lo, hi - lo, lr, eps);
               });
}

void rmsprop_step(std::span<double> x, std::span<double> sq, std::span<const double> g, double lr,
                  double decay, double eps) {
  check_same_size(x, g, "rmsprop_step");
  check_same_size(x, sq, "rmsprop_step");
  const auto& table = detail::active_table();
  double* px = x.data();
  double* ps = sq.data();
  const double* pg = g.data();
  parallel_for(static_cast<std::int64_t>(x.size()), elementwise_grain(),
               [&](std::int64_t lo, std::int64_t hi) {
                 table.rmsprop(px + lo, ps + lo, pg + lo, hi - lo, lr, decay, eps);
               });
}

}  // namespace yf::core
