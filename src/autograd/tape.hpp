// GraphTape: a reusable, pool-allocated autograd graph (DESIGN.md §8).
//
// The historical graph builder makes a fresh `shared_ptr<Node>` plus
// fresh value/grad tensors for every op of every step, so model training
// runs malloc-bound. A GraphTape exploits that a training loop replays
// the *same* op structure each step:
//
//  * nodes live in a pool owned by the tape (stable addresses, handed to
//    Variables as non-owning aliases);
//  * node values, gradients and per-op scratch are windows of the tape's
//    core::Workspace (bump arena with high-water-mark reuse);
//  * recording is *match-at-cursor*: `begin_step()` rewinds a cursor, and
//    each op compares (signature, parents, output dims, attributes)
//    against the node already recorded at the cursor. On a match the
//    existing node -- buffers, parent links, backward closure -- is
//    reused and only its value is recomputed. On a mismatch the stale
//    tail is truncated (workspace rolled back) and recording continues
//    fresh from there.
//
// After a one-step warm-up, a fixed-shape training step touches the heap
// zero times across forward, backward and optimizer apply (proved by the
// allocation-regression suite against core/alloc_count.hpp).
//
// backward() on a tape node replays the exact traversal the heap path
// would use -- an iterative post-order DFS -- but caches the resulting
// order across steps (invalidated by any structure change), so gradients
// are bit-identical to the per-step shared_ptr graph.
//
// Contracts:
//  * one tape per thread of graph construction; a tape is not
//    thread-safe. The training loops own theirs (DESIGN.md §8):
//    train::train records on one per call, the worker loop
//    (dist::run_channel_workers, and async::run_workers through it) on
//    one per worker body, AsyncTrainer on a member;
//  * Variables handed out during a step stay valid until the node they
//    reference is truncated or the tape dies; across `begin_step()` a
//    stale handle observes the *new* step's value (same buffer);
//  * per-step varying data (labels, indices) lives in `Node::ints` and
//    is refreshed on every replay; anything identity-relevant must be in
//    the signature, dims or attrs;
//  * repoint parameters (core::ParamArena construction) *before* the
//    warm-up step -- record-time caches may hold views of parent
//    storage, and ops revalidate them per step only against storage
//    identity.
//
// Backward is serial (DESIGN.md §10): one thread walks the cached order
// children-before-parents and runs every node's own pullback. Pullbacks
// at this repo's shapes cost a few microseconds, no more than a
// cross-thread hand-off, so parallelism lives in the kernels and in the
// parameter server's worker fan-out. The tape does not fuse elementwise
// chains: at these shapes their interior buffers are already L1-resident,
// and what a node costs is its bookkeeping. The one hot chain, the LSTM
// cell, is one hand-written op instead (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "autograd/variable.hpp"
#include "core/workspace.hpp"
#include "tensor/tensor.hpp"

namespace yf::autograd {

class GraphTape {
 public:
  /// `workspace_reserve` doubles are pre-allocated into the workspace.
  explicit GraphTape(std::int64_t workspace_reserve = 0);
  ~GraphTape();
  GraphTape(const GraphTape&) = delete;
  GraphTape& operator=(const GraphTape&) = delete;

  /// Rewind the cursor: the next recorded op matches against the first
  /// cached node. Cached nodes, buffers and closures are retained.
  void begin_step();

  // -- Introspection / stats. -----------------------------------------------
  std::int64_t steps() const { return steps_; }
  std::size_t recorded_nodes() const { return nodes_.size(); }
  std::int64_t replayed_nodes() const { return replayed_; }
  std::int64_t fresh_nodes() const { return fresh_; }
  core::Workspace& workspace() { return ws_; }
  const core::Workspace& workspace() const { return ws_; }

  // -- Op-author interface (autograd/ops.cpp). ------------------------------
  struct Frame {
    Node* node = nullptr;
    NodePtr handle;     ///< owning (heap) or non-owning alias (tape)
    bool fresh = true;  ///< install backward_fn / scratch when true
  };

  /// Match-or-create the node at the cursor. `attrs` are immutable op
  /// attributes that participate in replay identity (scalars, strides).
  Frame record(const char* sig, std::span<const NodePtr> parents,
               std::span<const std::int64_t> dims, std::span<const double> attrs);

  /// Workspace scratch for the node being recorded; rolled back together
  /// with the node on truncation.
  tensor::Tensor scratch(std::span<const std::int64_t> dims) { return ws_.acquire(dims); }

  /// Run a backward pass from `out` (a node of this tape) seeded with
  /// `seed`, using the cached traversal order when the structure is
  /// unchanged. Invoked via Variable::backward().
  void backward_from(Node* out, const tensor::Tensor& seed);

 private:
  bool matches(const Node& n, const char* sig, std::span<const NodePtr> parents,
               std::span<const std::int64_t> dims, std::span<const double> attrs,
               bool requires_grad) const;
  void build_order(Node* out);

  std::deque<Node> nodes_;  ///< deque: stable addresses under growth
  std::size_t cursor_ = 0;
  core::Workspace ws_;
  std::uint64_t structure_epoch_ = 0;
  std::int64_t steps_ = 0;
  std::int64_t replayed_ = 0;
  std::int64_t fresh_ = 0;

  // Cached backward traversal (valid while the structure is unchanged).
  std::vector<Node*> order_;
  Node* order_out_ = nullptr;
  std::uint64_t order_epoch_ = 0;
  bool order_valid_ = false;
  struct DfsFrame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<DfsFrame> dfs_stack_;
};

/// Tape currently installed on this thread (nullptr: heap graph building).
GraphTape* active_tape();

/// RAII installation of a tape as the thread's active tape. A null tape
/// is a no-op (whatever was active stays active), so a loop that runs
/// either on a tape or eagerly (the tests' reference loops) can thread
/// an optional tape through unconditionally.
class TapeScope {
 public:
  explicit TapeScope(GraphTape* tape);
  ~TapeScope();
  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

 private:
  GraphTape* prev_ = nullptr;
  bool installed_ = false;
};

// -- Frame helpers shared by every op (autograd/ops.cpp). --------------------

/// Build the output frame for an op: on the active tape when one is
/// installed, otherwise a fresh heap node (the historical path). The
/// frame's value tensor is shaped `dims`; a `requires_grad` node also has
/// its gradient buffer materialized up-front on the tape path.
GraphTape::Frame make_frame(const char* sig, std::span<const NodePtr> parents,
                            std::span<const std::int64_t> dims,
                            std::span<const double> attrs = {});

/// Scratch tensor for the op being built: workspace-backed under a tape,
/// a fresh tensor otherwise. Only call while `frame.fresh` handling.
tensor::Tensor make_scratch(std::span<const std::int64_t> dims);
tensor::Tensor make_scratch(std::initializer_list<std::int64_t> dims);

}  // namespace yf::autograd
