#include "nn/linear.hpp"

#include "autograd/ops.hpp"
#include "nn/init.hpp"

namespace yf::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, tensor::Rng& rng,
               bool with_bias)
    : with_bias_(with_bias) {
  weight = register_parameter(
      "weight", init::xavier_uniform({in_features, out_features}, in_features, out_features, rng));
  if (with_bias_) {
    bias = register_parameter("bias", tensor::Tensor::zeros({out_features}));
  }
}

autograd::Variable Linear::forward(const autograd::Variable& x) const {
  return with_bias_ ? autograd::linear(x, weight, bias) : autograd::matmul(x, weight);
}

}  // namespace yf::nn
