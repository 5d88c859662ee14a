// Total-momentum estimator mu_hat_T (Eq. 37).
//
// Models the running system as E[x_{t+1} - x_t] = mu_T E[x_t - x_{t-1}]
// - alpha E grad f(x_t) (Eq. 16) and solves for mu_T elementwise at the
// most recent index whose own-iterate gradient is causally available
// (tau steps back under staleness tau):
//
//   mu_hat_T = median_j ( (x_{i+1} - x_i + alpha_i * g_i)_j
//                         / (x_i - x_{i-1})_j ),   i = t - tau - 1,
//
// where g_i is the stochastic gradient evaluated AT iterate x_i. The
// elementwise median makes the estimate robust to coordinates with tiny
// iterate movement; coordinates with |denominator| < kEq37DenomEps are
// skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace yf::async {

class TotalMomentumEstimator {
 public:
  /// `staleness` = tau (0 for synchronous training).
  explicit TotalMomentumEstimator(std::int64_t staleness);

  /// Record one server step: the iterate BEFORE the update, the stochastic
  /// gradient evaluated at that same iterate, and the learning rate in
  /// effect. Call exactly once per optimization step, before the update.
  void record(const tensor::Tensor& iterate, const tensor::Tensor& grad_at_iterate,
              double alpha);

  /// Latest mu_hat_T; nullopt until enough history exists (tau + 3 records)
  /// or when every coordinate's denominator underflows.
  std::optional<double> estimate() const;

 private:
  struct Record {
    tensor::Tensor x;
    tensor::Tensor g;
    double alpha;
  };
  std::int64_t staleness_;
  std::deque<Record> history_;
  /// Eq. 37 ratio scratch; its capacity is kept across estimate() calls.
  mutable std::vector<double> ratios_;
};

/// Eq. 37 skips coordinates whose |x_read - x_prev| is below this: the
/// parameter server and TotalMomentumEstimator both pass it as `eps`.
inline constexpr double kEq37DenomEps = 1e-10;

/// Eq. 37's per-coordinate ratios ((x_next - x_read) + lr * g) /
/// (x_read - x_prev), packed into the front of `out` for every coordinate
/// whose |x_read - x_prev| is not below `eps`; returns how many were kept.
/// The loop stores every ratio and advances the count by the test, so it
/// has no data-dependent branch; `out` needs room for every coordinate.
/// The parameter server's push and TotalMomentumEstimator both call it.
std::size_t eq37_ratios(std::span<const double> x_prev, std::span<const double> x_read,
                        std::span<const double> x_next, std::span<const double> g, double lr,
                        double eps, std::span<double> out);

/// Median of a (non-empty) vector; averages the two middle elements for
/// even sizes. Utility shared with tests.
double median(std::vector<double> values);

/// Same selection, reordering `values` in place instead of copying --
/// the parameter server's push path reuses one scratch buffer per
/// thread, so the hot path must not allocate. An exact three-way
/// quickselect whose partition loops have no data-dependent branch: the
/// ratios it serves are near-ties, on which a branching selection
/// mispredicts most compares (DESIGN.md §5). Input holding NaN still
/// terminates, with an unspecified result.
double median_inplace(std::span<double> values);

}  // namespace yf::async
