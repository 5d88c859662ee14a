// Loss-curve metrics implementing the paper's Section 5.1 protocol:
//  * smooth training losses with a uniform (trailing) window;
//  * "record the lowest smoothed loss achieved by both; speedup is the
//    ratio of iterations to achieve this loss".
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace yf::train {

/// Trailing uniform moving average with window `w` (paper uses 1000).
std::vector<double> smooth_uniform(const std::vector<double>& curve, std::int64_t w);

/// First index where curve[i] <= target; nullopt if never reached.
std::optional<std::int64_t> iterations_to_reach(const std::vector<double>& curve, double target);

struct Speedup {
  double ratio = 0.0;             ///< iters(baseline) / iters(other); >1 means other wins
  double common_loss = 0.0;       ///< the lowest smoothed loss achieved by both
  std::int64_t baseline_iters = 0;
  std::int64_t other_iters = 0;
};

/// Section 5.1 speedup of `other` over `baseline` on smoothed loss curves.
Speedup speedup_over(const std::vector<double>& baseline_smoothed,
                     const std::vector<double>& other_smoothed);

/// Elementwise mean of equal-length curves (seed averaging).
std::vector<double> average_curves(const std::vector<std::vector<double>>& curves);

/// Minimum value of a curve.
double curve_min(const std::vector<double>& curve);

}  // namespace yf::train
