#include "nn/embedding.hpp"

#include "autograd/ops.hpp"
#include "nn/init.hpp"

namespace yf::nn {

Embedding::Embedding(std::int64_t vocab, std::int64_t dim, tensor::Rng& rng) {
  // 0.1 stddev keeps initial logits small, as is conventional for LM tables.
  weight = register_parameter("weight", init::normal({vocab, dim}, 0.1, rng));
}

autograd::Variable Embedding::forward(const std::vector<std::int64_t>& indices) const {
  return autograd::embedding(weight, indices);
}

}  // namespace yf::nn
