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
//    train::train records on one per call, run_workers and
//    run_channel_workers on one per worker body, AsyncTrainer on a
//    member;
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
// children-before-parents. Pullbacks at this repo's shapes cost a few
// microseconds, no more than a cross-thread hand-off, so parallelism
// lives in the kernels and in the parameter server's worker fan-out.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
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
  std::size_t cursor() const { return cursor_; }
  std::int64_t replayed_nodes() const { return replayed_; }
  std::int64_t fresh_nodes() const { return fresh_; }
  core::Workspace& workspace() { return ws_; }
  const core::Workspace& workspace() const { return ws_; }

  // -- Fusion stats (DESIGN.md §13). ----------------------------------------
  /// Nodes currently folded into fused sweeps (chain members, tails
  /// included).
  std::int64_t fused_nodes() const { return fused_nodes_; }
  /// Fused chains currently active.
  std::int64_t fusion_chains() const { return fusion_chains_; }
  /// Bytes of intermediate value+grad storage eliminated by dropping
  /// chain-interior buffers from the workspace.
  std::int64_t eliminated_intermediate_bytes() const { return eliminated_bytes_; }
  /// Times the fusion pass rebuilt the tape (fires at warm-up and again
  /// after any truncation, once the structure re-stabilizes).
  std::int64_t fusion_rebuilds() const { return fusion_rebuilds_; }

  // -- Op-author interface (autograd/ops.cpp). ------------------------------
  struct Frame {
    Node* node = nullptr;
    NodePtr handle;     ///< owning (heap) or non-owning alias (tape)
    bool fresh = true;  ///< install backward_fn / scratch when true
    /// The value is produced by a fused sweep (or not at all, for a
    /// bufferless chain interior) -- the op must skip its elementwise
    /// compute call. Closures are still installed when `fresh`.
    bool skip_compute = false;
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

  /// An external reader (Variable::value/grad on a stale handle) wants to
  /// observe a bufferless fused-chain interior: unfuse the owning chain,
  /// restoring heap buffers with this step's values. No-op for ordinary
  /// nodes. Fused ops themselves never call this -- they read shapes via
  /// fuse_dims -- so a chain is only ever dissolved by genuinely foreign
  /// observation or structure change (DESIGN.md §13).
  void materialize_interior(Node* n);

 private:
  bool matches(const Node& n, const char* sig, std::span<const NodePtr> parents,
               std::span<const std::int64_t> dims, std::span<const double> attrs,
               bool requires_grad) const;
  void build_order(Node* out);
  // -- Fusion pass (tape.cpp; DESIGN.md §13). -------------------------------
  void maybe_fuse();
  void finalize_fusion_plan();
  void abandon_fusion_plan();
  void complete_chain(Node& tail);
  void run_fused_forward(Node& tail);
  void run_fused_backward(Node& tail);
  void unfuse_chain(std::int32_t chain);
  void repair_node(Node& n);
  void truncate_fusion(std::size_t cut);
  void unfuse_all();

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

  // -- Fusion state (DESIGN.md §13). ------------------------------------------
  //
  // Chains live behind unique_ptr so Node::fused stays stable while the
  // vector grows; a slot is reset to null when its chain is unfused. The
  // plan is keyed by recording index and only consulted while the fused
  // rebuild step is re-recording the graph (plan_active_).
  struct FusePlanEntry {
    const char* sig = nullptr;
    std::int64_t elems = 0;
    std::uint8_t kind = 0;   ///< 1 + FusedOpKind, matching Node::fuse_kind
    std::int8_t role = 0;    ///< 0 none, 1 interior, 2 tail
    std::int32_t chain = -1;
    std::int32_t step = -1;
  };
  std::vector<std::unique_ptr<FusedChain>> chains_;
  std::vector<FusePlanEntry> fuse_plan_;
  bool plan_active_ = false;
  std::uint64_t fusion_checked_epoch_ = ~std::uint64_t{0};  ///< last structure scanned
  std::int64_t step_start_fresh_ = 0;  ///< fresh_ at begin_step (stability check)
  std::int64_t fused_nodes_ = 0;
  std::int64_t fusion_chains_ = 0;
  std::int64_t eliminated_bytes_ = 0;
  std::int64_t fusion_rebuilds_ = 0;
  // Fusion-scan scratch (consumer edge counts), reused across scans.
  std::vector<std::int32_t> fuse_edges_;
  std::vector<Node*> fuse_single_;
};

/// Tape currently installed on this thread (nullptr: heap graph building).
GraphTape* active_tape();

/// Process-wide switch for the tape fusion pass (DESIGN.md §13). Defaults
/// to the YF_TAPE_FUSION environment variable, read once through
/// core::checked_env_bool (on|off|1|0|true|false; anything else warns and
/// keeps fusion on), or on when unset. Turning fusion off takes effect at
/// each tape's next begin_step(), which unfuses any active chains in
/// place; trajectories are bit-identical either way -- this is a
/// memory/throughput knob.
void set_tape_fusion(bool on);
bool tape_fusion_enabled();

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
