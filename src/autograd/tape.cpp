#include "autograd/tape.hpp"

#include <atomic>
#include <cstring>
#include <stdexcept>

namespace yf::autograd {

namespace {

thread_local GraphTape* t_active_tape = nullptr;

/// Process-wide DFS stamp source: unique epochs even when several tapes
/// traverse graphs that share leaf nodes.
std::atomic<std::uint64_t> g_visit_epoch{0};

NodePtr alias_handle(Node* n) {
  // Non-owning aliasing handle: no control block, no refcount traffic.
  return NodePtr(NodePtr{}, n);
}

}  // namespace

GraphTape::GraphTape(std::int64_t workspace_reserve) : ws_(workspace_reserve) {}

GraphTape::~GraphTape() {
  if (t_active_tape == this) t_active_tape = nullptr;
}

void GraphTape::begin_step() {
  cursor_ = 0;
  ++steps_;
}

bool GraphTape::matches(const Node& n, const char* sig, std::span<const NodePtr> parents,
                        std::span<const std::int64_t> dims, std::span<const double> attrs,
                        bool requires_grad) const {
  if (n.op_name != sig && std::strcmp(n.op_name, sig) != 0) return false;
  if (n.requires_grad != requires_grad) return false;
  if (n.parents.size() != parents.size()) return false;
  for (std::size_t i = 0; i < parents.size(); ++i) {
    if (n.parents[i].get() != parents[i].get()) return false;
  }
  const auto& shape = n.value.shape();
  if (shape.size() != dims.size()) return false;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (shape[i] != dims[i]) return false;
  }
  if (n.attrs.size() != attrs.size()) return false;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (n.attrs[i] != attrs[i]) return false;
  }
  return true;
}

GraphTape::Frame GraphTape::record(const char* sig, std::span<const NodePtr> parents,
                                   std::span<const std::int64_t> dims,
                                   std::span<const double> attrs) {
  bool requires_grad = false;
  for (const auto& p : parents) {
    if (!p) throw std::invalid_argument("GraphTape::record: null parent");
    requires_grad = requires_grad || p->requires_grad;
  }

  if (cursor_ < nodes_.size()) {
    Node& n = nodes_[cursor_];
    if (matches(n, sig, parents, dims, attrs, requires_grad)) {
      ++cursor_;
      ++replayed_;
      return Frame{&n, alias_handle(&n), false};
    }
    // Structure changed mid-stream: drop the stale tail (and its
    // workspace windows) and re-record from here.
    ws_.rollback(n.ws_mark);
    nodes_.resize(cursor_);
    ++structure_epoch_;
    order_valid_ = false;
  }

  const core::Workspace::Marker mark = ws_.mark();
  Node& n = nodes_.emplace_back();
  n.op_name = sig;
  n.tape = this;
  n.ws_mark = mark;
  n.requires_grad = requires_grad;
  n.parents.assign(parents.begin(), parents.end());
  n.attrs.assign(attrs.begin(), attrs.end());
  n.value = ws_.acquire(dims);
  if (requires_grad) {
    // Materialize the gradient now so backward closures can be built
    // once, at record time, against stable buffers.
    n.grad = ws_.acquire(dims);
    n.grad_allocated = true;
  }
  ++cursor_;
  ++fresh_;
  ++structure_epoch_;
  order_valid_ = false;
  return Frame{&n, alias_handle(&n), true};
}

void GraphTape::build_order(Node* out) {
  const std::uint64_t epoch = g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  order_.clear();
  dfs_stack_.clear();
  // Identical traversal to the heap path's topo_sort (variable.cpp):
  // iterative post-order DFS, parents expanded in list order, visited
  // tracked via epoch stamps instead of a hash set.
  if (out->requires_grad) {
    dfs_stack_.push_back({out, 0});
    out->visit_epoch = epoch;
  }
  while (!dfs_stack_.empty()) {
    DfsFrame& f = dfs_stack_.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && p->visit_epoch != epoch) {
        p->visit_epoch = epoch;
        dfs_stack_.push_back({p, 0});
      }
    } else {
      order_.push_back(f.node);
      dfs_stack_.pop_back();
    }
  }
  order_out_ = out;
  order_epoch_ = structure_epoch_;
  order_valid_ = true;
}

void GraphTape::backward_from(Node* out, const tensor::Tensor& seed) {
  if (out == nullptr || out->tape != this) {
    throw std::logic_error("GraphTape::backward_from: node does not belong to this tape");
  }
  if (!out->requires_grad) return;
  if (!(order_valid_ && order_out_ == out && order_epoch_ == structure_epoch_)) {
    build_order(out);
  }
  // Same pass as the heap path: materialize, zero the non-leaf per-pass
  // buffers, seed, then run pullbacks children-before-parents.
  for (Node* n : order_) n->ensure_grad();
  for (Node* n : order_) {
    if (!n->parents.empty()) n->grad.zero_();
  }
  out->ensure_grad().add_(seed);
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn) n->backward_fn(*n);
  }
}

GraphTape* active_tape() { return t_active_tape; }

TapeScope::TapeScope(GraphTape* tape) {
  if (tape == nullptr) return;
  prev_ = t_active_tape;
  t_active_tape = tape;
  installed_ = true;
}

TapeScope::~TapeScope() {
  if (installed_) t_active_tape = prev_;
}

GraphTape::Frame make_frame(const char* sig, std::span<const NodePtr> parents,
                            std::span<const std::int64_t> dims, std::span<const double> attrs) {
  if (GraphTape* tape = active_tape()) {
    return tape->record(sig, parents, dims, attrs);
  }
  GraphTape::Frame frame;
  auto node = std::make_shared<Node>();
  node->op_name = sig;
  node->value = tensor::Tensor(tensor::Shape(dims.begin(), dims.end()));
  bool requires_grad = false;
  for (const auto& p : parents) {
    if (!p) throw std::invalid_argument("make_frame: null parent");
    requires_grad = requires_grad || p->requires_grad;
  }
  node->requires_grad = requires_grad;
  if (requires_grad) {
    // The heap path keeps the historical economy: parents and the
    // backward closure are only retained when gradients can flow.
    node->parents.assign(parents.begin(), parents.end());
  }
  frame.node = node.get();
  frame.handle = std::move(node);
  frame.fresh = true;
  return frame;
}

tensor::Tensor make_scratch(std::span<const std::int64_t> dims) {
  if (GraphTape* tape = active_tape()) return tape->scratch(dims);
  return tensor::Tensor(tensor::Shape(dims.begin(), dims.end()));
}

tensor::Tensor make_scratch(std::initializer_list<std::int64_t> dims) {
  return make_scratch(std::span<const std::int64_t>(dims.begin(), dims.size()));
}

}  // namespace yf::autograd
