#include "nn/lstm.hpp"

#include "autograd/ops.hpp"
#include "nn/init.hpp"

namespace yf::nn {

namespace ag = yf::autograd;

LSTMCell::LSTMCell(std::int64_t input_size, std::int64_t hidden_size, tensor::Rng& rng,
                   double init_scale)
    : input_(input_size), hidden_(hidden_size) {
  w_x = register_parameter(
      "w_x", init::xavier_uniform({input_, 4 * hidden_}, input_, hidden_, rng, init_scale));
  w_h = register_parameter(
      "w_h", init::xavier_uniform({hidden_, 4 * hidden_}, hidden_, hidden_, rng, init_scale));
  tensor::Tensor bias = tensor::Tensor::zeros({4 * hidden_});
  for (std::int64_t j = hidden_; j < 2 * hidden_; ++j) bias[j] = 1.0;  // forget gate
  b = register_parameter("b", std::move(bias));
}

LSTMState LSTMCell::forward(const autograd::Variable& x, const LSTMState& prev) const {
  const auto packed = ag::lstm_cell(x, prev.h, prev.c, w_x, w_h, b);
  const auto batch = packed.value().dim(0) / 2;
  return {ag::slice_rows(packed, 0, batch), ag::slice_rows(packed, batch, 2 * batch)};
}

LSTMState LSTMCell::zero_state(std::int64_t batch) const {
  const auto zero = ag::zeros({batch, hidden_});
  return {zero, zero};
}

LSTM::LSTM(std::int64_t input_size, std::int64_t hidden_size, std::int64_t num_layers,
           tensor::Rng& rng, double init_scale) {
  for (std::int64_t l = 0; l < num_layers; ++l) {
    auto cell = std::make_shared<LSTMCell>(l == 0 ? input_size : hidden_size, hidden_size, rng,
                                           init_scale);
    register_module("cell" + std::to_string(l), cell);
    cells_.push_back(std::move(cell));
  }
}

const std::vector<autograd::Variable>& LSTM::forward(
    const std::vector<autograd::Variable>& inputs, const std::vector<LSTMState>* initial,
    std::vector<LSTMState>* final_states) const {
  const auto batch = inputs.empty() ? 1 : inputs.front().value().dim(0);
  std::vector<LSTMState>& st = states_scratch_;
  st.clear();
  if (initial != nullptr && !initial->empty()) {
    st.assign(initial->begin(), initial->end());
  } else if (!cells_.empty()) {
    // All layers share one hidden size, so one zero tensor is every
    // layer's initial h and c.
    st.assign(cells_.size(), cells_.front()->zero_state(batch));
  }
  outputs_.clear();
  outputs_.reserve(inputs.size());
  for (const auto& x : inputs) {
    autograd::Variable layer_in = x;
    for (std::size_t l = 0; l < cells_.size(); ++l) {
      const LSTMCell& cell = *cells_[l];
      layer_in = ag::lstm_cell(layer_in, st[l].h, st[l].c, cell.w_x, cell.w_h, cell.b);
      st[l] = {layer_in, layer_in};
    }
    outputs_.push_back(layer_in);
  }
  if (final_states != nullptr) {
    final_states->resize(cells_.size());
    for (std::size_t l = 0; l < cells_.size(); ++l) {
      (*final_states)[l] = inputs.empty() ? st[l]
                                          : LSTMState{ag::slice_rows(st[l].h, 0, batch),
                                                      ag::slice_rows(st[l].c, batch, 2 * batch)};
    }
  }
  return outputs_;
}

std::vector<LSTMState> LSTM::zero_states(std::int64_t batch) const {
  std::vector<LSTMState> st;
  st.reserve(cells_.size());
  for (const auto& cell : cells_) st.push_back(cell->zero_state(batch));
  return st;
}

}  // namespace yf::nn
