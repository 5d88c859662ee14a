// 2-D convolution layer (NCHW), backed by autograd::conv2d (im2col).
#pragma once

#include "nn/module.hpp"
#include "tensor/random.hpp"

namespace yf::nn {

class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, tensor::Rng& rng);

  autograd::Variable forward(const autograd::Variable& x) const;

  autograd::Variable weight;  ///< [out, in, k, k]
  autograd::Variable bias;    ///< [out]

 private:
  std::int64_t stride_, pad_;
};

}  // namespace yf::nn
