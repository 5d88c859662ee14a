// Fully-connected layer: y = x @ W + b, x: [B, in], W: [in, out], b: [out].
// With its bias it is one autograd node (autograd::linear), and x may be
// an LSTM's packed state, whose h rows it reads in place.
#pragma once

#include "nn/module.hpp"
#include "tensor/random.hpp"

namespace yf::nn {

class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, tensor::Rng& rng,
         bool with_bias = true);

  autograd::Variable forward(const autograd::Variable& x) const;

  autograd::Variable weight;  ///< [in, out]
  autograd::Variable bias;    ///< [out]; undefined when constructed without bias

 private:
  bool with_bias_;
};

}  // namespace yf::nn
