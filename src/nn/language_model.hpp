// LSTM language model: Embedding -> LSTM stack -> Linear to vocab.
//
// Substitutes for the paper's PTB/TinyShakespeare/WSJ LSTMs (Table 3).
// Supports weight tying (Press & Wolf 2016) for the Fig. 11 "Tied LSTM".
#pragma once

#include <memory>

#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/module.hpp"

namespace yf::nn {

struct LanguageModelConfig {
  std::int64_t vocab = 64;
  std::int64_t embed_dim = 32;
  std::int64_t hidden = 32;
  std::int64_t layers = 2;
  double init_scale = 1.0;   ///< scales LSTM weight init (exploding-grad variant uses > 1)
  bool tie_weights = false;  ///< reuse the embedding table as output projection
};

class LSTMLanguageModel : public Module {
 public:
  LSTMLanguageModel(const LanguageModelConfig& cfg, tensor::Rng& rng);

  /// Teacher-forced next-token loss over a [B, T+1] token batch flattened
  /// row-major into `tokens` (inputs = tokens[:, :T], targets = tokens[:, 1:]).
  /// Returns mean cross-entropy over B*T predictions.
  autograd::Variable loss(const std::vector<std::int64_t>& tokens, std::int64_t batch,
                          std::int64_t seq_len_plus1) const;

  /// Logits at every step: tokens [B, T] -> [B*T, V] (row = b*T + t).
  /// loss() reads the same logits per step, without this copy into one
  /// tensor.
  autograd::Variable logits(const std::vector<std::int64_t>& inputs, std::int64_t batch,
                            std::int64_t seq_len) const;

  const LanguageModelConfig& config() const { return cfg_; }

  // Structural accessors for the tape-free serving engine (src/serve/),
  // which mirrors this model's forward over snapshot-backed weights.
  const Embedding& embed() const { return *embed_; }
  const LSTM& lstm() const { return *lstm_; }
  /// Output projection; null when `tie_weights` (logits = h @ Eᵀ).
  const Linear* out_layer() const { return out_.get(); }

 private:
  LanguageModelConfig cfg_;
  std::shared_ptr<Embedding> embed_;
  std::shared_ptr<LSTM> lstm_;
  std::shared_ptr<Linear> out_;  ///< null when tied

  /// One [B, V] logits node per step, in step_logits_.
  const std::vector<autograd::Variable>& step_logits(const std::vector<std::int64_t>& inputs,
                                                     std::int64_t batch,
                                                     std::int64_t seq_len) const;
  void release_scratch() const;

  // Per-call scratch reused across steps so a steady-state training step
  // performs no heap allocation (DESIGN.md §8). One thread drives a
  // model instance at a time (worker replicas own their models).
  mutable std::vector<autograd::Variable> steps_;
  mutable std::vector<autograd::Variable> step_logits_;
  mutable std::vector<std::int64_t> col_;
  mutable std::vector<std::int64_t> inputs_;
  mutable std::vector<std::int64_t> targets_;
};

}  // namespace yf::nn
