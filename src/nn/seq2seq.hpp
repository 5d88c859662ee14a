// Encoder-decoder LSTM for the Table 1 / Fig. 6 stability experiments.
//
// Substitutes for the convolutional seq-to-seq model of Gehring et al.
// (DESIGN.md §2): what Table 1 exercises is optimizer stability under
// exploding gradients, which we reproduce by scaling recurrent weight init
// (`init_scale` > 1 makes the recurrent Jacobian spectral radius > 1 on
// steep regions, yielding occasional gradient explosions).
#pragma once

#include <memory>

#include "nn/embedding.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/module.hpp"

namespace yf::nn {

struct Seq2SeqConfig {
  std::int64_t src_vocab = 16;
  std::int64_t tgt_vocab = 16;
  std::int64_t embed_dim = 16;
  std::int64_t hidden = 32;
  std::int64_t layers = 1;
  double init_scale = 1.0;
};

class Seq2Seq : public Module {
 public:
  Seq2Seq(const Seq2SeqConfig& cfg, tensor::Rng& rng);

  /// Teacher-forced loss. src: [B, S] row-major, tgt: [B, T+1] row-major
  /// (tgt[:, 0] is BOS; predictions are tgt[:, 1:]).
  autograd::Variable loss(const std::vector<std::int64_t>& src, std::int64_t src_len,
                          const std::vector<std::int64_t>& tgt, std::int64_t tgt_len_plus1,
                          std::int64_t batch) const;

  /// Fraction of correctly predicted (argmax) target tokens; forward only.
  double token_accuracy(const std::vector<std::int64_t>& src, std::int64_t src_len,
                        const std::vector<std::int64_t>& tgt, std::int64_t tgt_len_plus1,
                        std::int64_t batch) const;

  const Seq2SeqConfig& config() const { return cfg_; }

 private:
  /// Decoder logits [B*T, V], row = b*T + t (token_accuracy reads them).
  autograd::Variable decode_logits(const std::vector<std::int64_t>& src, std::int64_t src_len,
                                   const std::vector<std::int64_t>& tgt,
                                   std::int64_t tgt_len_plus1, std::int64_t batch) const;
  /// One [B, V] logits node per decoder step, in step_logits_.
  const std::vector<autograd::Variable>& step_logits(const std::vector<std::int64_t>& src,
                                                     std::int64_t src_len,
                                                     const std::vector<std::int64_t>& tgt,
                                                     std::int64_t tgt_len_plus1,
                                                     std::int64_t batch) const;
  void release_scratch() const;

  Seq2SeqConfig cfg_;
  std::shared_ptr<Embedding> src_embed_, tgt_embed_;
  std::shared_ptr<LSTM> encoder_, decoder_;
  std::shared_ptr<Linear> out_;

  // Per-call scratch reused across steps (see language_model.hpp).
  mutable std::vector<autograd::Variable> enc_steps_;
  mutable std::vector<autograd::Variable> dec_steps_;
  mutable std::vector<autograd::Variable> step_logits_;
  mutable std::vector<LSTMState> states_;
  mutable std::vector<std::int64_t> col_;
  mutable std::vector<std::int64_t> targets_;
};

}  // namespace yf::nn
