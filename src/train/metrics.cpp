#include "train/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace yf::train {

std::vector<double> smooth_uniform(const std::vector<double>& curve, std::int64_t w) {
  if (w < 1) throw std::invalid_argument("smooth_uniform: window must be >= 1");
  std::vector<double> out(curve.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    acc += curve[i];
    if (i >= static_cast<std::size_t>(w)) acc -= curve[i - static_cast<std::size_t>(w)];
    const auto n = std::min<std::int64_t>(static_cast<std::int64_t>(i) + 1, w);
    out[i] = acc / static_cast<double>(n);
  }
  return out;
}

std::optional<std::int64_t> iterations_to_reach(const std::vector<double>& curve,
                                                double target) {
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i] <= target) return static_cast<std::int64_t>(i);
  }
  return std::nullopt;
}

Speedup speedup_over(const std::vector<double>& baseline_smoothed,
                     const std::vector<double>& other_smoothed) {
  if (baseline_smoothed.empty() || other_smoothed.empty()) {
    throw std::invalid_argument("speedup_over: empty curve");
  }
  Speedup s;
  s.common_loss = std::max(curve_min(baseline_smoothed), curve_min(other_smoothed));
  const auto bi = iterations_to_reach(baseline_smoothed, s.common_loss);
  const auto oi = iterations_to_reach(other_smoothed, s.common_loss);
  // By construction both curves reach common_loss; guard for NaN curves.
  if (!bi || !oi) throw std::runtime_error("speedup_over: curve never reaches common loss");
  s.baseline_iters = *bi;
  s.other_iters = *oi;
  s.ratio = s.other_iters > 0
                ? static_cast<double>(s.baseline_iters) / static_cast<double>(s.other_iters)
                : static_cast<double>(s.baseline_iters > 0 ? s.baseline_iters : 1);
  return s;
}

std::vector<double> average_curves(const std::vector<std::vector<double>>& curves) {
  if (curves.empty()) throw std::invalid_argument("average_curves: no curves");
  const auto n = curves.front().size();
  for (const auto& c : curves) {
    if (c.size() != n) throw std::invalid_argument("average_curves: length mismatch");
  }
  std::vector<double> out(n, 0.0);
  for (const auto& c : curves) {
    for (std::size_t i = 0; i < n; ++i) out[i] += c[i];
  }
  for (auto& v : out) v /= static_cast<double>(curves.size());
  return out;
}

double curve_min(const std::vector<double>& curve) {
  if (curve.empty()) throw std::invalid_argument("curve_min: empty curve");
  return *std::min_element(curve.begin(), curve.end());
}

}  // namespace yf::train
