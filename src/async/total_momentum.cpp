#include "async/total_momentum.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace yf::async {

namespace {

/// Moves the elements x of v[lo, hi) for which `first(x)` holds to the
/// front and returns the end of that block. Each step swaps v[i] with the
/// block's end unconditionally and advances the end by the test, so the
/// loop has no data-dependent branch to mispredict.
template <class First>
std::size_t partition_front(double* v, std::size_t lo, std::size_t hi, First first) {
  std::size_t end = lo;
  for (std::size_t i = lo; i < hi; ++i) {
    const double x = v[i];
    v[i] = v[end];
    v[end] = x;
    end += static_cast<std::size_t>(first(x));
  }
  return end;
}

double median_of_3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/// Pivot for v[lo, hi): the median of its ends and middle, or on wider
/// ranges Tukey's ninther over nine spread elements. Always one of the
/// range's own values, so a non-NaN pivot lands in the equal block.
double pick_pivot(const double* v, std::size_t lo, std::size_t hi) {
  const std::size_t n = hi - lo;
  const std::size_t mid = lo + n / 2;
  if (n < 64) return median_of_3(v[lo], v[mid], v[hi - 1]);
  const std::size_t s = n / 8;
  return median_of_3(median_of_3(v[lo], v[lo + s], v[lo + 2 * s]),
                     median_of_3(v[mid - s], v[mid], v[mid + s]),
                     median_of_3(v[hi - 1 - 2 * s], v[hi - 1 - s], v[hi - 1]));
}

/// Reorders v so that v[k] holds its k-th smallest element, everything
/// before it is no larger and everything after no smaller. Three-way
/// quickselect: split the range into < pivot, == pivot and > pivot (the
/// second split only when k lies past the first block) and keep the part
/// holding k. The equal block always holds the pivot unless it is NaN, in
/// which case it takes the whole range, so runs of equal values and NaNs
/// end the loop.
void select_kth(std::span<double> v, std::size_t k) {
  double* d = v.data();
  std::size_t lo = 0;
  std::size_t hi = v.size();
  while (true) {
    const double p = pick_pivot(d, lo, hi);
    const std::size_t less = partition_front(d, lo, hi, [p](double x) { return x < p; });
    if (k < less) {
      hi = less;
      continue;
    }
    const std::size_t equal = partition_front(d, less, hi, [p](double x) { return !(p < x); });
    if (k < equal) return;
    lo = equal;
  }
}

}  // namespace

std::size_t eq37_ratios(std::span<const double> x_prev, std::span<const double> x_read,
                        std::span<const double> x_next, std::span<const double> g, double lr,
                        double eps, std::span<double> out) {
  const std::size_t n = x_read.size();
  if (x_prev.size() != n || x_next.size() != n || g.size() != n || out.size() < n) {
    throw std::invalid_argument("eq37_ratios: size mismatch");
  }
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double den = x_read[i] - x_prev[i];
    out[count] = ((x_next[i] - x_read[i]) + lr * g[i]) / den;
    count += static_cast<std::size_t>(!(std::abs(den) < eps));
  }
  return count;
}

double median_inplace(std::span<double> values) {
  if (values.empty()) throw std::invalid_argument("median: empty input");
  const auto mid = values.size() / 2;
  select_kth(values, mid);
  double m = values[mid];
  if (values.size() % 2 == 0) {
    const auto lower =
        *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + lower);
  }
  return m;
}

double median(std::vector<double> values) { return median_inplace(values); }

TotalMomentumEstimator::TotalMomentumEstimator(std::int64_t staleness)
    : staleness_(staleness) {
  if (staleness < 0) throw std::invalid_argument("TotalMomentumEstimator: staleness >= 0");
}

void TotalMomentumEstimator::record(const tensor::Tensor& iterate,
                                    const tensor::Tensor& grad_at_iterate, double alpha) {
  history_.push_back({iterate.clone(), grad_at_iterate.clone(), alpha});
  // Need records at indices i-1, i, i+1 with i = newest - 1 - tau.
  const std::size_t needed = static_cast<std::size_t>(staleness_) + 3;
  while (history_.size() > needed) history_.pop_front();
}

std::optional<double> TotalMomentumEstimator::estimate() const {
  const std::size_t needed = static_cast<std::size_t>(staleness_) + 3;
  if (history_.size() < needed) return std::nullopt;
  // history_ holds x_{i-1} .. x_{t} with i-1 at the front. The estimation
  // index i is the second record; x_{i+1} the third.
  const Record& prev = history_[0];   // x_{i-1}
  const Record& cur = history_[1];    // x_i, g_i, alpha_i
  const Record& next = history_[2];   // x_{i+1}
  ratios_.resize(static_cast<std::size_t>(cur.x.size()));
  const std::size_t count = eq37_ratios(prev.x.data(), cur.x.data(), next.x.data(), cur.g.data(),
                                        cur.alpha, kEq37DenomEps, ratios_);
  if (count == 0) return std::nullopt;
  return median_inplace(std::span(ratios_).first(count));
}

}  // namespace yf::async
