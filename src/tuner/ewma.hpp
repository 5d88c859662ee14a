// Zero-debiased exponential moving averages (Kingma & Ba / Appendix E).
//
// All measurement functions in YellowFin smooth their inputs with EWMA at
// beta = 0.999; zero-debias divides by (1 - beta^t) so estimates are usable
// from the first step instead of starting near zero.
#pragma once

#include <cstdint>

#include "core/state.hpp"
#include "tensor/tensor.hpp"

namespace yf::tuner {

/// Scalar EWMA with zero-debias.
class Ewma {
 public:
  explicit Ewma(double beta) : beta_(beta) {}

  /// Incorporate one observation; returns the debiased average.
  double update(double x);

  /// Debiased current value (0 before any update).
  double value() const;

  std::int64_t count() const { return count_; }

  void reset();

  /// Serialize/restore the mutable accumulator bit-exactly (beta is
  /// configuration and comes from the constructor, DESIGN.md §14).
  void save_state(core::StateWriter& w) const;
  void load_state(core::StateReader& r);

 private:
  double beta_;
  double raw_ = 0.0;
  std::int64_t count_ = 0;
};

/// Elementwise EWMA over same-shaped tensors, with zero-debias.
class TensorEwma {
 public:
  explicit TensorEwma(double beta) : beta_(beta) {}

  /// Incorporate one observation (allocates state on first call).
  void update(const tensor::Tensor& x);

  /// Debiased average; throws if never updated.
  tensor::Tensor value() const;

  bool initialized() const { return count_ > 0; }
  std::int64_t count() const { return count_; }

 private:
  double beta_;
  tensor::Tensor raw_;
  std::int64_t count_ = 0;
};

}  // namespace yf::tuner
