// The decoder's head reads each step's packed state in place (one linear
// node per step), and the loss reads the decoder's step logits where they
// lie; decode_logits() builds the [B*T, V] tensor token_accuracy reads
// with concat_cols and reshape. The encoder's final states stay
// slice_rows nodes: they start the decoder (DESIGN.md §8, §13).
#include "nn/seq2seq.hpp"

#include <stdexcept>

#include "autograd/ops.hpp"

namespace yf::nn {

namespace ag = yf::autograd;

Seq2Seq::Seq2Seq(const Seq2SeqConfig& cfg, tensor::Rng& rng) : cfg_(cfg) {
  src_embed_ = std::make_shared<Embedding>(cfg.src_vocab, cfg.embed_dim, rng);
  tgt_embed_ = std::make_shared<Embedding>(cfg.tgt_vocab, cfg.embed_dim, rng);
  encoder_ = std::make_shared<LSTM>(cfg.embed_dim, cfg.hidden, cfg.layers, rng, cfg.init_scale);
  decoder_ = std::make_shared<LSTM>(cfg.embed_dim, cfg.hidden, cfg.layers, rng, cfg.init_scale);
  out_ = std::make_shared<Linear>(cfg.hidden, cfg.tgt_vocab, rng);
  register_module("src_embed", src_embed_);
  register_module("tgt_embed", tgt_embed_);
  register_module("encoder", encoder_);
  register_module("decoder", decoder_);
  register_module("out", out_);
}

const std::vector<autograd::Variable>& Seq2Seq::step_logits(
    const std::vector<std::int64_t>& src, std::int64_t src_len,
    const std::vector<std::int64_t>& tgt, std::int64_t tgt_len_plus1, std::int64_t batch) const {
  if (static_cast<std::int64_t>(src.size()) != batch * src_len ||
      static_cast<std::int64_t>(tgt.size()) != batch * tgt_len_plus1) {
    throw std::invalid_argument("Seq2Seq: token buffer size mismatch");
  }
  const auto tgt_len = tgt_len_plus1 - 1;
  // Encode source; decoder starts from the encoder's final states.
  enc_steps_.clear();
  enc_steps_.reserve(static_cast<std::size_t>(src_len));
  col_.resize(static_cast<std::size_t>(batch));
  for (std::int64_t t = 0; t < src_len; ++t) {
    for (std::int64_t b = 0; b < batch; ++b)
      col_[static_cast<std::size_t>(b)] = src[static_cast<std::size_t>(b * src_len + t)];
    enc_steps_.push_back(src_embed_->forward(col_));
  }
  states_.clear();
  encoder_->forward(enc_steps_, nullptr, &states_);

  dec_steps_.clear();
  dec_steps_.reserve(static_cast<std::size_t>(tgt_len));
  for (std::int64_t t = 0; t < tgt_len; ++t) {
    for (std::int64_t b = 0; b < batch; ++b)
      col_[static_cast<std::size_t>(b)] = tgt[static_cast<std::size_t>(b * tgt_len_plus1 + t)];
    dec_steps_.push_back(tgt_embed_->forward(col_));
  }
  // The decoder's own final states are not read: it records none. Each
  // output is a step's packed state, whose h rows the head reads in place.
  const auto& dec_out = decoder_->forward(dec_steps_, &states_);
  step_logits_.clear();
  step_logits_.reserve(dec_out.size());
  for (const auto& h : dec_out) step_logits_.push_back(out_->forward(h));
  return step_logits_;
}

void Seq2Seq::release_scratch() const {
  // Release the scratch handles so the returned variable is the only
  // thing keeping this step's graph alive (see language_model.cpp).
  enc_steps_.clear();
  dec_steps_.clear();
  step_logits_.clear();
  states_.clear();
  encoder_->clear_scratch();
  decoder_->clear_scratch();
}

autograd::Variable Seq2Seq::decode_logits(const std::vector<std::int64_t>& src,
                                          std::int64_t src_len,
                                          const std::vector<std::int64_t>& tgt,
                                          std::int64_t tgt_len_plus1,
                                          std::int64_t batch) const {
  const auto& steps = step_logits(src, src_len, tgt, tgt_len_plus1, batch);
  auto wide = ag::concat_cols(steps);  // [B, T*V]
  auto out = ag::reshape(wide, {batch * (tgt_len_plus1 - 1), cfg_.tgt_vocab});
  release_scratch();
  return out;
}

autograd::Variable Seq2Seq::loss(const std::vector<std::int64_t>& src, std::int64_t src_len,
                                 const std::vector<std::int64_t>& tgt,
                                 std::int64_t tgt_len_plus1, std::int64_t batch) const {
  const auto tgt_len = tgt_len_plus1 - 1;
  const auto& steps = step_logits(src, src_len, tgt, tgt_len_plus1, batch);
  targets_.resize(static_cast<std::size_t>(batch * tgt_len));
  for (std::int64_t b = 0; b < batch; ++b)
    for (std::int64_t t = 0; t < tgt_len; ++t)
      targets_[static_cast<std::size_t>(b * tgt_len + t)] =
          tgt[static_cast<std::size_t>(b * tgt_len_plus1 + t + 1)];
  // The loss reads the step logits in place, rows in decode_logits' order.
  auto out = ag::softmax_cross_entropy(steps, targets_);
  release_scratch();
  return out;
}

double Seq2Seq::token_accuracy(const std::vector<std::int64_t>& src, std::int64_t src_len,
                               const std::vector<std::int64_t>& tgt,
                               std::int64_t tgt_len_plus1, std::int64_t batch) const {
  const auto tgt_len = tgt_len_plus1 - 1;
  auto lg = decode_logits(src, src_len, tgt, tgt_len_plus1, batch);
  const auto& v = lg.value();
  std::int64_t correct = 0;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t t = 0; t < tgt_len; ++t) {
      const auto row = b * tgt_len + t;
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < cfg_.tgt_vocab; ++j)
        if (v[row * cfg_.tgt_vocab + j] > v[row * cfg_.tgt_vocab + best]) best = j;
      if (best == tgt[static_cast<std::size_t>(b * tgt_len_plus1 + t + 1)]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(batch * tgt_len);
}

}  // namespace yf::nn
