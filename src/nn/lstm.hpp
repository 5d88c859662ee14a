// LSTM cell and multi-layer unrolled LSTM (BPTT through autograd).
//
// A cell step is one op, autograd::lstm_cell, which records two graph
// nodes: the input projection x @ w_x, then the cell (h_prev @ w_h and the
// cell math, whose forward kernels tensor::lstm_{gates,cell,hidden}_into
// serve::LMForward calls too; DESIGN.md §8, §11, §13). The cell's value
// packs the new state as [2B, H], h rows then c rows. The next step and
// the next layer read those rows in place, and so does whatever reads
// LSTM::forward's outputs: each is a step's packed top-layer state, whose
// first B rows are h, and autograd::linear and matmul_nt (the LM heads)
// read those rows where they lie. Only the final states a caller asks for
// become slice_rows nodes. Nodes per step, not one op per layer
// sequence: every step's nodes must keep their own place in the backward
// order, or the weight and embedding gradients sum in another order
// (DESIGN.md §13). Gate layout in the [B, 4H] gate tensor: input |
// forget | cell | output (i, f, g, o). Forget-gate bias is initialized to
// 1 per standard practice, which the paper's LSTM experiments rely on for
// stable early training.
#pragma once

#include <vector>

#include "nn/module.hpp"
#include "tensor/random.hpp"

namespace yf::nn {

struct LSTMState {
  autograd::Variable h;  ///< [B, H]
  autograd::Variable c;  ///< [B, H]
};

class LSTMCell : public Module {
 public:
  LSTMCell(std::int64_t input_size, std::int64_t hidden_size, tensor::Rng& rng,
           double init_scale = 1.0);

  /// One step: x [B, input] with previous state -> next state, whose h
  /// and c are row slices of the step's packed lstm_cell state.
  LSTMState forward(const autograd::Variable& x, const LSTMState& prev) const;

  /// Zero state for batch size B (constant, non-differentiable; h and c
  /// are one zero tensor). Under an active GraphTape it is tape-cached
  /// across steps.
  LSTMState zero_state(std::int64_t batch) const;

  std::int64_t hidden_size() const { return hidden_; }
  std::int64_t input_size() const { return input_; }

  autograd::Variable w_x;  ///< [input, 4H]
  autograd::Variable w_h;  ///< [H, 4H]
  autograd::Variable b;    ///< [4H]

 private:
  std::int64_t input_, hidden_;
};

/// Stack of LSTMCells applied over a token sequence.
class LSTM : public Module {
 public:
  LSTM(std::int64_t input_size, std::int64_t hidden_size, std::int64_t num_layers,
       tensor::Rng& rng, double init_scale = 1.0);

  /// Run over a sequence of per-step inputs (each [B, input]); returns the
  /// top layer's packed lstm_cell state at every step (each [2B, H]: h
  /// rows, then c rows). The run starts from
  /// `initial` when it is non-null and non-empty, else from zero states.
  /// With `final_states`, the final h and c of each layer are left there
  /// as row-view nodes; without it none are recorded. The two may point
  /// at one vector. The returned vector is an internal buffer reused
  /// across calls (so steady-state steps do not allocate) -- copy it if it
  /// must survive the next forward() on this module.
  const std::vector<autograd::Variable>& forward(
      const std::vector<autograd::Variable>& inputs,
      const std::vector<LSTMState>* initial = nullptr,
      std::vector<LSTMState>* final_states = nullptr) const;

  std::vector<LSTMState> zero_states(std::int64_t batch) const;

  /// Drop the Variable handles held in the reuse buffers. On the heap
  /// graph path those handles pin the previous step's whole graph until
  /// the next forward(); callers that are done consuming forward()'s
  /// result (language_model, seq2seq) clear so steady-state memory stays
  /// bounded by one step. Capacity is retained, so the tape path's
  /// zero-allocation property is unaffected.
  void clear_scratch() const {
    outputs_.clear();
    states_scratch_.clear();
  }

  const LSTMCell& cell(std::int64_t i) const { return *cells_[static_cast<std::size_t>(i)]; }

 private:
  std::vector<std::shared_ptr<LSTMCell>> cells_;
  // Per-call scratch reused across steps (modules are driven by one
  // thread; worker replicas each own their module). states_scratch_ holds
  // each layer's running state: after the first step both h and c are the
  // layer's latest packed lstm_cell state.
  mutable std::vector<autograd::Variable> outputs_;
  mutable std::vector<LSTMState> states_scratch_;
};

}  // namespace yf::nn
