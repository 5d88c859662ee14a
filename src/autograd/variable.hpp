// Tape-based reverse-mode automatic differentiation.
//
// A `Variable` is a cheap handle onto a graph `Node`. Each forward op
// produces a node whose `backward_fn` scatters the node's gradient into
// its parents. Calling `Variable::backward()` on a scalar output runs the
// graph in reverse topological order.
//
// Nodes come from one of two owners:
//
//  * an active `GraphTape` (autograd/tape.hpp): nodes live in the tape's
//    pool and are *reused* across steps when the recorded op structure
//    matches, with values/grads backed by a core::Workspace. After a
//    one-step warm-up a training step performs no heap allocation in
//    forward or backward. Every tape node keeps its own value buffer,
//    so reading a handle's value is a plain read. Tape handles are
//    non-owning: they stay valid until the tape truncates that node
//    (structure change) or dies.
//    Every training loop -- train::train, async::AsyncTrainer, and the
//    worker loop dist::run_channel_workers (which async::run_workers
//    runs through) -- records on a tape it owns;
//  * the eager heap path, for ops built with no tape installed (hand
//    loops outside those, gradcheck, inference probes): every op makes
//    a fresh `shared_ptr<Node>`, freed when the last Variable handle
//    drops. It is the reference the tape's bit-identity tests compare
//    against.
//
// Parameters are *leaf* variables (`requires_grad == true`, no parents);
// their `.grad()` accumulates across backward calls until `zero_grad()`.
// A gradient buffer is materialized only when something actually flows
// into it: `has_grad()` tells the two states apart, and `grad()` on a
// gradient-free variable returns a shared immutable empty tensor rather
// than silently allocating (see DESIGN.md §8).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/workspace.hpp"
#include "tensor/tensor.hpp"

namespace yf::autograd {

struct Node;
using NodePtr = std::shared_ptr<Node>;
class GraphTape;

/// A node in the dynamically-built computation graph.
struct Node {
  tensor::Tensor value;
  tensor::Tensor grad;      ///< same shape as `value`; allocated lazily
  bool requires_grad = false;
  bool grad_allocated = false;
  std::vector<NodePtr> parents;
  /// Propagates `this->grad` into `parents` (invoked once, in topo order).
  std::function<void(Node&)> backward_fn;
  const char* op_name = "leaf";  ///< static string; doubles as the tape signature

  // -- Tape bookkeeping (null/empty on heap nodes). -------------------------
  GraphTape* tape = nullptr;        ///< owning tape, if pool-allocated
  core::Workspace::Marker ws_mark;  ///< workspace position before this node
  std::vector<double> attrs;        ///< immutable op attributes, replay-matched
  std::vector<std::int64_t> ints;   ///< per-step integer payload (labels, indices)
  std::vector<tensor::Tensor> scratch;  ///< op scratch reused across steps
  std::uint64_t visit_epoch = 0;    ///< DFS stamp for the cached backward order

  /// Ensure `grad` is allocated (zero-filled) and return it.
  tensor::Tensor& ensure_grad();
  /// Accumulate `g` into this node's gradient if it requires one.
  void accumulate_grad(const tensor::Tensor& g);
};

/// Handle onto a graph node. Copying a Variable copies the handle, not the
/// data.
class Variable {
 public:
  /// Uninitialized (null) variable; most APIs reject it.
  Variable() = default;

  /// Leaf variable wrapping `value`.
  explicit Variable(tensor::Tensor value, bool requires_grad = false);

  /// Internal: wrap an existing node (used by ops).
  explicit Variable(NodePtr node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }

  const tensor::Tensor& value() const;
  tensor::Tensor& value();

  /// True when a gradient buffer has been materialized (by a backward
  /// pass, ensure_grad, or arena adoption). A freshly created leaf has no
  /// gradient yet -- semantically zero, but unallocated.
  bool has_grad() const;

  /// Gradient of the last backward pass. When `has_grad()` is false this
  /// returns a shared immutable *empty* tensor (size 0) instead of
  /// materializing per-variable zeros; callers that need a dense zero
  /// gradient should branch on has_grad().
  const tensor::Tensor& grad() const;

  bool requires_grad() const;

  /// Reset accumulated gradient to zero (leaf parameters between steps).
  /// A variable without a materialized gradient is left as-is -- absent
  /// already means zero.
  void zero_grad();

  /// Run reverse-mode AD from this (scalar) variable: seeds d(out)/d(out)=1.
  void backward();

  /// Run reverse-mode AD seeding with an explicit output gradient.
  void backward(const tensor::Tensor& seed);

  NodePtr node() const { return node_; }

 private:
  NodePtr node_;
};

}  // namespace yf::autograd
