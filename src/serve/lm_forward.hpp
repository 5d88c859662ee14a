// Tape-free LSTM-LM forward for serving (DESIGN.md §11).
//
// Runs LSTMLanguageModel::logits()'s kernel sequence over weights read
// from a pinned SnapshotStore slot instead of the live arena. Each cell
// step calls the training cell's own kernels (two matmuls, then
// tensor::lstm_{gates,cell,hidden}_into), and the head calls the training
// head's: tensor::linear_into, or matmul_nt_into when the weights are
// tied. It runs once per forward over the top-layer h rows of every step,
// gathered in the logits' row order; a GEMM row depends only on its own
// input row, so each logits row equals the training step's. Only the
// embedding gather repeats an autograd op's value path. Served logits are
// therefore bit-identical to the training tape's forward for the same
// snapshot (pinned by EXPECT_EQ in tests/serve_test.cpp).
//
// All buffers live in per-batch-size Plans acquired from an owned
// Workspace; after warm_all() a forward performs zero heap allocations.
// One LMForward instance is driven by one thread at a time (each
// ServeWorker owns its own).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/arena.hpp"
#include "core/workspace.hpp"
#include "nn/language_model.hpp"
#include "serve/snapshot.hpp"

namespace yf::serve {

class LMForward {
 public:
  /// `arena` must be the flat arena the model's parameters live in (it
  /// maps each weight to its offset in the snapshot buffers). `store`
  /// must outlive this object.
  LMForward(const nn::LSTMLanguageModel& model, const core::ParamArena& arena,
            const SnapshotStore& store, std::int64_t seq_len, std::int64_t max_batch);
  ~LMForward();  // out-of-line: Plan is incomplete here

  /// Batched forward over `batch` requests of `seq_len` tokens each
  /// (tokens row-major [batch, seq_len]), reading weights from snapshot
  /// slot `slot`. Returns logits [batch*seq_len, V] with row = b*T + t;
  /// the tensor is owned by the plan and valid until the next forward of
  /// the same batch size.
  const tensor::Tensor& forward(std::span<const std::int64_t> tokens, std::int64_t batch,
                                int slot);

  /// Build every batch-size plan and run each once (weights from `slot`),
  /// so later forwards -- including the GEMM packing workspace of the
  /// calling thread -- allocate nothing. Call from the serving thread.
  void warm_all(int slot);

 private:
  struct LayerWeights {
    tensor::Tensor w_x;  ///< [input, 4H]
    tensor::Tensor w_h;  ///< [H, 4H]
    tensor::Tensor b;    ///< [4H]
  };
  struct SlotWeights {
    tensor::Tensor embed;  ///< [V, E]
    std::vector<LayerWeights> layers;
    tensor::Tensor w_out;  ///< [H, V]; empty when tied
    tensor::Tensor b_out;  ///< [V]; empty when tied
  };
  struct Plan;

  Plan& plan(std::int64_t batch);

  std::int64_t seq_len_, max_batch_;
  std::int64_t vocab_, embed_dim_, hidden_, layers_;
  bool tied_;
  const SnapshotStore* store_;
  std::vector<SlotWeights> slots_;  ///< per snapshot slot
  core::Workspace ws_;
  std::vector<std::unique_ptr<Plan>> plans_;  ///< indexed by batch - 1
};

}  // namespace yf::serve
