#include "serve/lm_forward.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace yf::serve {

namespace t = yf::tensor;

namespace {

/// Shaped per-slot view of one arena parameter inside a snapshot buffer.
t::Tensor snapshot_view(const SnapshotStore& store, int slot, const core::ParamArena& arena,
                        std::size_t param_slot, t::Shape shape) {
  return t::Tensor::view_of(store.slot_buffer(slot), arena.offset(param_slot), std::move(shape));
}

}  // namespace

/// Per-batch-size buffer set. Persistent state (h/c) ping-pongs across
/// steps; everything else is single-step scratch reused for every (t, l).
struct LMForward::Plan {
  std::int64_t batch = 0;
  t::Tensor emb;                            ///< [b, E] current step embedding
  t::Tensor zx, zh;                         ///< [b, 4H] gate projections
  t::Tensor gates;                          ///< [b, 4H] gate activations (i|f|g|o)
  t::Tensor tc;                             ///< [b, H] tanh(c)
  std::vector<std::array<t::Tensor, 2>> h;  ///< [L][2] ping-pong hidden state
  std::vector<std::array<t::Tensor, 2>> c;  ///< [L][2] ping-pong cell state
  t::Tensor zero_state;                     ///< [b, H] all-zero initial h/c
  t::Tensor top;                            ///< [b*T, H] top-layer h, row b*T + t
  t::Tensor logits;                         ///< [b*T, V]
};

LMForward::LMForward(const nn::LSTMLanguageModel& model, const core::ParamArena& arena,
                     const SnapshotStore& store, std::int64_t seq_len, std::int64_t max_batch)
    : seq_len_(seq_len), max_batch_(max_batch), store_(&store) {
  if (seq_len < 1) throw std::invalid_argument("LMForward: seq_len must be positive");
  if (max_batch < 1) throw std::invalid_argument("LMForward: max_batch must be positive");
  const auto& cfg = model.config();
  vocab_ = cfg.vocab;
  embed_dim_ = cfg.embed_dim;
  hidden_ = cfg.hidden;
  layers_ = cfg.layers;
  tied_ = cfg.tie_weights;
  if (store.size() != arena.size()) {
    throw std::invalid_argument("LMForward: snapshot store does not match the arena");
  }

  // Map each weight Variable to its arena slot once, then build shaped
  // views into every snapshot buffer. Views alias the slot storage, so a
  // forward against slot s reads exactly the version pinned there.
  const auto embed_slot = arena.slot_index(model.embed().weight);
  slots_.reserve(static_cast<std::size_t>(store.slot_count()));
  for (int s = 0; s < store.slot_count(); ++s) {
    SlotWeights w;
    w.embed = snapshot_view(store, s, arena, embed_slot, {vocab_, embed_dim_});
    w.layers.reserve(static_cast<std::size_t>(layers_));
    for (std::int64_t l = 0; l < layers_; ++l) {
      const auto& cell = model.lstm().cell(l);
      const std::int64_t in = cell.input_size();
      LayerWeights lw;
      lw.w_x = snapshot_view(store, s, arena, arena.slot_index(cell.w_x), {in, 4 * hidden_});
      lw.w_h = snapshot_view(store, s, arena, arena.slot_index(cell.w_h), {hidden_, 4 * hidden_});
      lw.b = snapshot_view(store, s, arena, arena.slot_index(cell.b), {4 * hidden_});
      w.layers.push_back(std::move(lw));
    }
    if (const auto* out = model.out_layer()) {
      w.w_out = snapshot_view(store, s, arena, arena.slot_index(out->weight), {hidden_, vocab_});
      w.b_out = snapshot_view(store, s, arena, arena.slot_index(out->bias), {vocab_});
    }
    slots_.push_back(std::move(w));
  }
  plans_.resize(static_cast<std::size_t>(max_batch_));
}

LMForward::~LMForward() = default;

LMForward::Plan& LMForward::plan(std::int64_t batch) {
  auto& slot = plans_[static_cast<std::size_t>(batch - 1)];
  if (slot) return *slot;
  auto p = std::make_unique<Plan>();
  p->batch = batch;
  const auto b = batch;
  p->emb = ws_.acquire({b, embed_dim_});
  p->zx = ws_.acquire({b, 4 * hidden_});
  p->zh = ws_.acquire({b, 4 * hidden_});
  p->gates = ws_.acquire({b, 4 * hidden_});
  p->tc = ws_.acquire({b, hidden_});
  p->h.resize(static_cast<std::size_t>(layers_));
  p->c.resize(static_cast<std::size_t>(layers_));
  for (std::int64_t l = 0; l < layers_; ++l) {
    for (int k = 0; k < 2; ++k) {
      p->h[static_cast<std::size_t>(l)][k] = ws_.acquire({b, hidden_});
      p->c[static_cast<std::size_t>(l)][k] = ws_.acquire({b, hidden_});
    }
  }
  p->zero_state = ws_.acquire({b, hidden_});  // acquired zero-filled, never written
  p->top = ws_.acquire({b * seq_len_, hidden_});
  p->logits = ws_.acquire({b * seq_len_, vocab_});
  slot = std::move(p);
  return *slot;
}

const t::Tensor& LMForward::forward(std::span<const std::int64_t> tokens, std::int64_t batch,
                                    int slot) {
  if (batch < 1 || batch > max_batch_) throw std::invalid_argument("LMForward: bad batch size");
  if (static_cast<std::int64_t>(tokens.size()) != batch * seq_len_) {
    throw std::invalid_argument("LMForward: token count mismatch");
  }
  for (const auto tok : tokens) {
    if (tok < 0 || tok >= vocab_) throw std::out_of_range("LMForward: token out of range");
  }
  Plan& p = plan(batch);
  const SlotWeights& W = slots_[static_cast<std::size_t>(slot)];
  const auto E = embed_dim_, H = hidden_, T = seq_len_;
  const auto& embed = W.embed;

  for (std::int64_t tstep = 0; tstep < T; ++tstep) {
    // Embedding gather of token column t (same loop as autograd::embedding).
    for (std::int64_t bi = 0; bi < batch; ++bi) {
      const auto idx = tokens[static_cast<std::size_t>(bi * T + tstep)];
      for (std::int64_t j = 0; j < E; ++j) p.emb[bi * E + j] = embed[idx * E + j];
    }
    const t::Tensor* x = &p.emb;
    for (std::int64_t l = 0; l < layers_; ++l) {
      const auto lu = static_cast<std::size_t>(l);
      const LayerWeights& lw = W.layers[lu];
      const t::Tensor& h_prev = tstep == 0 ? p.zero_state : p.h[lu][(tstep - 1) & 1];
      const t::Tensor& c_prev = tstep == 0 ? p.zero_state : p.c[lu][(tstep - 1) & 1];
      t::Tensor& h_next = p.h[lu][tstep & 1];
      t::Tensor& c_next = p.c[lu][tstep & 1];
      // LSTMCell::forward's kernels: the two gate projections, then the
      // cell's gates, state and hidden output.
      t::matmul_into(p.zx, *x, lw.w_x);
      t::matmul_into(p.zh, h_prev, lw.w_h);
      t::lstm_gates_into(p.gates, p.zx, p.zh, lw.b);
      t::lstm_cell_into(c_next, p.gates, c_prev);
      t::lstm_hidden_into(h_next, p.tc, p.gates, c_next);
      x = &h_next;
    }
    // Keep the top-layer h rows in the logits' row order (row = b*T + t).
    const double* h = x->data().data();
    double* top = p.top.data().data();
    for (std::int64_t bi = 0; bi < batch; ++bi) {
      std::copy_n(h + bi * H, H, top + (bi * T + tstep) * H);
    }
  }
  // The head over every step at once, with the training head's kernels:
  // a GEMM row depends only on its own A row (DESIGN.md §9), so logits row
  // b*T + t is row b of step t's training logits.
  if (tied_) {
    t::matmul_nt_into(p.logits, p.top, embed);
  } else {
    t::linear_into(p.logits, p.top, W.w_out, W.b_out);
  }
  return p.logits;
}

void LMForward::warm_all(int slot) {
  std::vector<std::int64_t> zeros(static_cast<std::size_t>(max_batch_ * seq_len_), 0);
  for (std::int64_t b = 1; b <= max_batch_; ++b) {
    forward(std::span<const std::int64_t>(zeros.data(), static_cast<std::size_t>(b * seq_len_)),
            b, slot);
  }
}

}  // namespace yf::serve
