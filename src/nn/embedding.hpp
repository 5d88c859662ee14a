// Token embedding table: weight [V, E]; lookup of a batch of indices.
#pragma once

#include "nn/module.hpp"
#include "tensor/random.hpp"

namespace yf::nn {

class Embedding : public Module {
 public:
  Embedding(std::int64_t vocab, std::int64_t dim, tensor::Rng& rng);

  /// indices (size B) -> [B, E].
  autograd::Variable forward(const std::vector<std::int64_t>& indices) const;

  autograd::Variable weight;  ///< [V, E]
};

}  // namespace yf::nn
