#include "autograd/variable.hpp"

#include <stdexcept>
#include <unordered_set>

#include "autograd/tape.hpp"

namespace yf::autograd {

tensor::Tensor& Node::ensure_grad() {
  if (!grad_allocated) {
    grad = tensor::Tensor::zeros(value.shape());
    grad_allocated = true;
  }
  return grad;
}

void Node::accumulate_grad(const tensor::Tensor& g) {
  if (!requires_grad) return;
  ensure_grad().add_(g);
}

Variable::Variable(tensor::Tensor value, bool requires_grad) : node_(std::make_shared<Node>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

const tensor::Tensor& Variable::value() const {
  if (!node_) throw std::logic_error("Variable::value: undefined variable");
  return node_->value;
}

tensor::Tensor& Variable::value() {
  if (!node_) throw std::logic_error("Variable::value: undefined variable");
  return node_->value;
}

bool Variable::has_grad() const { return node_ != nullptr && node_->grad_allocated; }

const tensor::Tensor& Variable::grad() const {
  if (!node_) throw std::logic_error("Variable::grad: undefined variable");
  if (node_->grad_allocated) return node_->grad;
  // Shared immutable "no gradient yet" sentinel: absent means zero, and
  // reading it must neither allocate nor mutate the node (the historical
  // behavior lazily materialized dense zeros from a const accessor).
  static const tensor::Tensor kEmptyGrad{tensor::Shape{0}};
  return kEmptyGrad;
}

bool Variable::requires_grad() const { return node_ && node_->requires_grad; }

void Variable::zero_grad() {
  if (!node_ || !node_->grad_allocated) return;
  node_->grad.zero_();
}

namespace {

/// Post-order DFS producing nodes in topological order (parents before
/// children in the returned vector's *reverse*). Iterative to avoid stack
/// overflow on long LSTM unrolls.
void topo_sort(const NodePtr& root, std::vector<Node*>& order) {
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    std::size_t next_parent;
  };
  std::vector<Frame> stack;
  if (root && root->requires_grad) {
    stack.push_back({root.get(), 0});
    visited.insert(root.get());
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      order.push_back(f.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Variable::backward() {
  if (!node_) throw std::logic_error("Variable::backward: undefined variable");
  if (node_->value.size() != 1) {
    throw std::invalid_argument(
        "Variable::backward: implicit seed requires a scalar output; shape is " +
        tensor::to_string(node_->value.shape()));
  }
  if (node_->value.ndim() == 1) {
    // The common scalar-loss shape: seed with a shared constant instead of
    // allocating fresh ones every step (the tape's zero-alloc contract).
    static const tensor::Tensor kOne = tensor::Tensor::ones(tensor::Shape{1});
    backward(kOne);
    return;
  }
  backward(tensor::Tensor::ones(node_->value.shape()));
}

void Variable::backward(const tensor::Tensor& seed) {
  if (!node_) throw std::logic_error("Variable::backward: undefined variable");
  tensor::check_same_shape(seed, node_->value, "backward seed");
  if (!node_->requires_grad) return;  // nothing to do: graph is constant

  if (node_->tape != nullptr) {
    // Pool-allocated node: the owning tape runs the pass with its cached
    // traversal order (identical sequence to the heap path below).
    node_->tape->backward_from(node_.get(), seed);
    return;
  }

  std::vector<Node*> order;
  topo_sort(node_, order);
  // Fresh gradient buffers for this pass on non-leaf nodes; leaves
  // accumulate across passes by design (see header).
  for (Node* n : order) n->ensure_grad();
  for (Node* n : order) {
    if (!n->parents.empty()) n->grad.zero_();  // non-leaf: per-pass buffer
  }
  node_->ensure_grad().add_(seed);
  // order is post-order (parents first); iterate in reverse so each node's
  // grad is complete before its backward_fn runs.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn) n->backward_fn(*n);
  }
}

}  // namespace yf::autograd
