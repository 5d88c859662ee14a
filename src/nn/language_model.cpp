// A training step of the LSTM LM records, per predicted token, the
// embedding, two nodes per layer (lstm_input and lstm_cell) and one head
// node -- linear, or matmul_nt when tied -- that reads the h rows of the
// step's packed top-layer state in place; then one loss node reads every
// step's [B, V] logits where they lie (DESIGN.md §8). logits() builds the
// [B*T, V] tensor its callers read with concat_cols and reshape instead.
#include "nn/language_model.hpp"

#include <stdexcept>

#include "autograd/ops.hpp"

namespace yf::nn {

namespace ag = yf::autograd;

LSTMLanguageModel::LSTMLanguageModel(const LanguageModelConfig& cfg, tensor::Rng& rng)
    : cfg_(cfg) {
  if (cfg.tie_weights && cfg.embed_dim != cfg.hidden) {
    throw std::invalid_argument("LSTMLanguageModel: weight tying requires embed_dim == hidden");
  }
  embed_ = std::make_shared<Embedding>(cfg.vocab, cfg.embed_dim, rng);
  lstm_ = std::make_shared<LSTM>(cfg.embed_dim, cfg.hidden, cfg.layers, rng, cfg.init_scale);
  register_module("embed", embed_);
  register_module("lstm", lstm_);
  if (!cfg.tie_weights) {
    out_ = std::make_shared<Linear>(cfg.hidden, cfg.vocab, rng);
    register_module("out", out_);
  }
}

const std::vector<autograd::Variable>& LSTMLanguageModel::step_logits(
    const std::vector<std::int64_t>& inputs, std::int64_t batch, std::int64_t seq_len) const {
  if (static_cast<std::int64_t>(inputs.size()) != batch * seq_len) {
    throw std::invalid_argument("LSTMLanguageModel::logits: token count mismatch");
  }
  // Per-step embeddings: column t of the [B, T] token matrix.
  steps_.clear();
  steps_.reserve(static_cast<std::size_t>(seq_len));
  col_.resize(static_cast<std::size_t>(batch));
  for (std::int64_t t = 0; t < seq_len; ++t) {
    for (std::int64_t b = 0; b < batch; ++b)
      col_[static_cast<std::size_t>(b)] = inputs[static_cast<std::size_t>(b * seq_len + t)];
    steps_.push_back(embed_->forward(col_));
  }
  // Each output is a step's packed top-layer state; the head reads its h
  // rows in place. Project each step to logits [B, V] on its own: one
  // projection of all steps stacked into [B*T, H] would sum each weight
  // gradient in a different order and move every trajectory.
  const auto& outputs = lstm_->forward(steps_);
  step_logits_.clear();
  step_logits_.reserve(outputs.size());
  for (const auto& h : outputs) {
    if (out_) {
      step_logits_.push_back(out_->forward(h));
    } else {
      // Tied weights (Press & Wolf): logits = h @ Eᵀ. The NT matmul
      // absorbs the transpose in the GEMM packing, so no [E, V] copy of
      // the embedding is materialized per step.
      step_logits_.push_back(ag::matmul_nt(h, embed_->weight));
    }
  }
  return step_logits_;
}

void LSTMLanguageModel::release_scratch() const {
  // Drop the scratch handles: the graph then lives (only) through the
  // returned variable's parent chain, so dropping it frees the whole step
  // on the heap path instead of pinning it until the next forward.
  steps_.clear();
  step_logits_.clear();
  lstm_->clear_scratch();
}

autograd::Variable LSTMLanguageModel::logits(const std::vector<std::int64_t>& inputs,
                                             std::int64_t batch, std::int64_t seq_len) const {
  // Interleave rows so that row = b*T + t: concat columns of [B, V] steps
  // then reshape [B, T*V] -> [B*T, V].
  auto wide = ag::concat_cols(step_logits(inputs, batch, seq_len));  // [B, T*V]
  auto out = ag::reshape(wide, {batch * seq_len, cfg_.vocab});
  release_scratch();
  return out;
}

autograd::Variable LSTMLanguageModel::loss(const std::vector<std::int64_t>& tokens,
                                           std::int64_t batch,
                                           std::int64_t seq_len_plus1) const {
  const auto seq_len = seq_len_plus1 - 1;
  if (seq_len < 1) throw std::invalid_argument("LSTMLanguageModel::loss: sequence too short");
  if (static_cast<std::int64_t>(tokens.size()) != batch * seq_len_plus1) {
    throw std::invalid_argument("LSTMLanguageModel::loss: token count mismatch");
  }
  inputs_.resize(static_cast<std::size_t>(batch * seq_len));
  targets_.resize(static_cast<std::size_t>(batch * seq_len));
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t t = 0; t < seq_len; ++t) {
      inputs_[static_cast<std::size_t>(b * seq_len + t)] =
          tokens[static_cast<std::size_t>(b * seq_len_plus1 + t)];
      targets_[static_cast<std::size_t>(b * seq_len + t)] =
          tokens[static_cast<std::size_t>(b * seq_len_plus1 + t + 1)];
    }
  }
  // The loss reads the step logits in place, in the [B*T, V] row order
  // (row = b*T + t) that logits() builds with two copies.
  auto out = ag::softmax_cross_entropy(step_logits(inputs_, batch, seq_len), targets_);
  release_scratch();
  return out;
}

}  // namespace yf::nn
