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
  // Two gate projections, then the cell's three elementwise ops.
  auto gates = ag::lstm_gates(ag::matmul(x, w_x), ag::matmul(prev.h, w_h), b);
  LSTMState next;
  next.c = ag::lstm_cell_state(gates, prev.c);
  next.h = ag::lstm_hidden(gates, next.c);
  return next;
}

LSTMState LSTMCell::zero_state(std::int64_t batch) const {
  LSTMState s;
  s.h = ag::zeros({batch, hidden_});
  s.c = ag::zeros({batch, hidden_});
  return s;
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
    const std::vector<autograd::Variable>& inputs, std::vector<LSTMState>* states) const {
  std::vector<LSTMState>& st = states ? *states : states_scratch_;
  if (!states) st.clear();
  if (st.empty()) {
    const auto batch = inputs.empty() ? 1 : inputs.front().value().dim(0);
    st.resize(cells_.size());
    for (std::size_t l = 0; l < cells_.size(); ++l) st[l] = cells_[l]->zero_state(batch);
  }
  outputs_.clear();
  outputs_.reserve(inputs.size());
  for (const auto& x : inputs) {
    autograd::Variable layer_in = x;
    for (std::size_t l = 0; l < cells_.size(); ++l) {
      st[l] = cells_[l]->forward(layer_in, st[l]);
      layer_in = st[l].h;
    }
    outputs_.push_back(layer_in);
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
