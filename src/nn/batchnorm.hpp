// Batch normalization layer (Ioffe & Szegedy), training-mode statistics.
//
// The paper's ResNets are BN networks; BN homogenizes per-layer gradient
// scales, which is a precondition for a single global learning rate (and
// hence momentum SGD / YellowFin) to be competitive with per-parameter
// methods like Adam.
#pragma once

#include "nn/module.hpp"

namespace yf::nn {

class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, double eps = 1e-5);

  /// [N, C, H, W] -> [N, C, H, W], normalized with batch statistics.
  autograd::Variable forward(const autograd::Variable& x) const;

  autograd::Variable gamma;  ///< scale, initialized to 1
  autograd::Variable beta;   ///< shift, initialized to 0

 private:
  double eps_;
};

}  // namespace yf::nn
