#include "autograd/tape.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <stdexcept>

#include "core/env.hpp"
#include "core/kernels/kernel_table.hpp"
#include "tensor/ops.hpp"

namespace yf::autograd {

namespace t = yf::tensor;

/// A fused elementwise chain (DESIGN.md §13): a producer->consumer run of
/// pointwise nodes compiled into one straight-line program executed by the
/// kernel table's fused sweeps. Interior members carry no value/grad
/// buffers; the tail owns the program and the (stable, pre-sized) operand
/// pointer scratch so steady-state sweeps allocate nothing.
struct FusedChain {
  std::vector<Node*> members;  ///< step order, head..tail
  std::vector<Node*> inputs;   ///< external operands, DFS encounter order
  std::vector<core::detail::FusedStep> steps;
  std::vector<const double*> in_vals;  ///< per-sweep input value pointers
  std::vector<double*> in_grads;       ///< per-sweep grad pointers (null: no grad)
  Node* tail = nullptr;
  std::int64_t elems = 0;
  std::int64_t eliminated = 0;  ///< interior value+grad doubles dropped
  bool complete = false;        ///< tail recorded, program built
};

namespace {

/// Effective backward parents: a fused tail stands in for its whole chain,
/// so traversal expands it through the chain's external inputs (the merged
/// parent set) instead of its literal parents (which include bufferless
/// interiors).
std::size_t eff_parent_count(const Node* n) {
  return n->fused != nullptr ? n->fused->inputs.size() : n->parents.size();
}

Node* eff_parent(const Node* n, std::size_t i) {
  return n->fused != nullptr ? n->fused->inputs[i] : n->parents[i].get();
}

/// Process-wide fusion switch: -1 = unresolved (consult YF_TAPE_FUSION on
/// first use), else 0/1. set_tape_fusion overrides the environment.
std::atomic<int> g_tape_fusion{-1};

thread_local GraphTape* t_active_tape = nullptr;

/// Process-wide DFS stamp source: unique epochs even when several tapes
/// traverse graphs that share leaf nodes.
std::atomic<std::uint64_t> g_visit_epoch{0};

NodePtr alias_handle(Node* n) {
  // Non-owning aliasing handle: no control block, no refcount traffic.
  return NodePtr(NodePtr{}, n);
}

}  // namespace

void set_tape_fusion(bool on) { g_tape_fusion.store(on ? 1 : 0, std::memory_order_relaxed); }

bool tape_fusion_enabled() {
  const int v = g_tape_fusion.load(std::memory_order_relaxed);
  if (v >= 0) return v != 0;
  static const bool env = core::checked_env_bool("YF_TAPE_FUSION", true);
  return env;
}

GraphTape::GraphTape(std::int64_t workspace_reserve) : ws_(workspace_reserve) {}

GraphTape::~GraphTape() {
  if (t_active_tape == this) t_active_tape = nullptr;
}

void GraphTape::begin_step() {
  // A fused rebuild step just finished re-recording: settle its chains
  // (complete ones go live; half-built ones get their buffers back).
  if (plan_active_) finalize_fusion_plan();
  if (tape_fusion_enabled()) {
    maybe_fuse();
  } else if (!chains_.empty()) {
    unfuse_all();
  }
  cursor_ = 0;
  ++steps_;
  step_start_fresh_ = fresh_;
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
  if (n.fuse_skip) {
    // Bufferless chain interior: the dropped value's shape lives in
    // fuse_dims.
    if (n.fuse_dims.size() != dims.size()) return false;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (n.fuse_dims[i] != dims[i]) return false;
    }
  } else {
    const auto& shape = n.value.shape();
    if (shape.size() != dims.size()) return false;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (shape[i] != dims[i]) return false;
    }
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
      Frame f{&n, alias_handle(&n), false};
      if (n.fuse_skip) {
        // Chain interior: the tail's sweep materializes this value in a
        // register only.
        f.skip_compute = true;
      } else if (n.fused != nullptr) {
        // Chain tail: every input was replayed earlier this step (parents
        // precede consumers in recording order), so run the sweep now.
        run_fused_forward(n);
        f.skip_compute = true;
      }
      return f;
    }
    // Structure changed mid-stream: drop the stale tail (and its
    // workspace windows) and re-record from here. Fused chains crossing
    // the cut get their surviving members' buffers back first.
    ws_.rollback(n.ws_mark);
    truncate_fusion(cursor_);
    nodes_.resize(cursor_);
    ++structure_epoch_;
    order_valid_ = false;
  }

  // Fusion-plan lookup: while a rebuild step is re-recording, the plan
  // names each index's role in a chain. Any deviation from the planned
  // structure abandons the remainder of the plan (half-built chains are
  // repaired in place; already-completed ones stay fused).
  std::int8_t role = 0;
  const FusePlanEntry* pe = nullptr;
  if (plan_active_ && cursor_ < fuse_plan_.size() && fuse_plan_[cursor_].role != 0) {
    pe = &fuse_plan_[cursor_];
    std::int64_t elems = 1;
    for (const std::int64_t d : dims) elems *= d;
    const std::size_t arity =
        static_cast<core::detail::FusedOpKind>(pe->kind - 1) <= core::detail::FusedOpKind::kMul
            ? 2u
            : 1u;
    const std::size_t chain_len =
        chains_[static_cast<std::size_t>(pe->chain)]
            ? chains_[static_cast<std::size_t>(pe->chain)]->members.size()
            : 0u;
    const bool chain_open = pe->step == 0
                                ? chains_[static_cast<std::size_t>(pe->chain)] == nullptr
                                : chain_len == static_cast<std::size_t>(pe->step) &&
                                      !chains_[static_cast<std::size_t>(pe->chain)]->complete;
    const bool ok = (pe->sig == sig || std::strcmp(pe->sig, sig) == 0) && pe->elems == elems &&
                    requires_grad && parents.size() == arity && chain_open;
    if (ok) {
      role = pe->role;
    } else {
      abandon_fusion_plan();
      pe = nullptr;
    }
  }

  // A new consumer of a bufferless interior that is not its planned chain
  // successor needs a value the sweep never materializes: unfuse.
  for (const auto& p : parents) {
    Node* pn = p.get();
    if (pn->tape != this || !pn->fuse_skip) continue;
    if (role != 0 && pe->chain == pn->fuse_chain) continue;
    const auto c = static_cast<std::size_t>(pn->fuse_chain);
    if (c < chains_.size() && chains_[c] && chains_[c]->complete) {
      unfuse_chain(pn->fuse_chain);
    } else if (plan_active_) {
      abandon_fusion_plan();
      role = 0;
      pe = nullptr;
    }
  }

  const core::Workspace::Marker mark = ws_.mark();
  Node& n = nodes_.emplace_back();
  n.op_name = sig;
  n.tape = this;
  n.tape_index = static_cast<std::int64_t>(cursor_);
  n.ws_mark = mark;
  n.requires_grad = requires_grad;
  n.parents.assign(parents.begin(), parents.end());
  n.attrs.assign(attrs.begin(), attrs.end());
  if (role != 0) {
    n.fuse_kind = pe->kind;
    n.fuse_chain = pe->chain;
    n.fuse_step = pe->step;
    auto& slot = chains_[static_cast<std::size_t>(pe->chain)];
    if (!slot) slot = std::make_unique<FusedChain>();
    slot->members.push_back(&n);
  }
  if (role == 1) {
    // Interior: no buffers at all -- this is the workspace saving. The
    // shape survives in fuse_dims for replay matching.
    n.fuse_skip = true;
    n.fuse_dims.assign(dims.begin(), dims.end());
  } else {
    n.value = ws_.acquire(dims);
    if (requires_grad) {
      // Materialize the gradient now so backward closures can be built
      // once, at record time, against stable buffers.
      n.grad = ws_.acquire(dims);
      n.grad_allocated = true;
    }
  }
  if (role == 2) complete_chain(n);
  ++cursor_;
  ++fresh_;
  ++structure_epoch_;
  order_valid_ = false;
  Frame f{&n, alias_handle(&n), true};
  if (role == 1) {
    f.skip_compute = true;
  } else if (role == 2) {
    run_fused_forward(n);
    f.skip_compute = true;
  }
  return f;
}

void GraphTape::build_order(Node* out) {
  const std::uint64_t epoch = g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  order_.clear();
  dfs_stack_.clear();
  // Identical traversal to the heap path's topo_sort (variable.cpp):
  // iterative post-order DFS, parents expanded in list order, visited
  // tracked via epoch stamps instead of a hash set. Fused tails expand
  // through their chain's external inputs (collected in the order the
  // unfused DFS would first meet them -- see complete_chain), so the
  // traversal of everything *outside* a chain is unchanged and chain
  // interiors never enter the order.
  if (out->requires_grad) {
    dfs_stack_.push_back({out, 0});
    out->visit_epoch = epoch;
  }
  while (!dfs_stack_.empty()) {
    DfsFrame& f = dfs_stack_.back();
    if (f.next_parent < eff_parent_count(f.node)) {
      Node* p = eff_parent(f.node, f.next_parent++);
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

// -- Tape fusion (DESIGN.md §13). ---------------------------------------------

void GraphTape::maybe_fuse() {
  // Fire only on a *stable* recording: the previous step fully replayed
  // (no truncation, no fresh nodes, cursor at the end) and backward
  // cached a traversal for it. One scan per structure epoch.
  if (steps_ == 0 || nodes_.empty()) return;
  if (cursor_ != nodes_.size()) return;
  if (fresh_ != step_start_fresh_) return;
  if (!order_valid_ || order_epoch_ != structure_epoch_) return;
  if (fusion_checked_epoch_ == structure_epoch_) return;
  fusion_checked_epoch_ = structure_epoch_;

  // Consumer-edge census over the whole recording. An interior must have
  // exactly one consumer *edge* (mul(x, x) counts twice), and it must be
  // the next node of the run.
  const std::size_t nn = nodes_.size();
  fuse_edges_.assign(nn, 0);
  fuse_single_.assign(nn, nullptr);
  for (Node& c : nodes_) {
    for (const NodePtr& p : c.parents) {
      Node* pn = p.get();
      if (pn->tape != this) continue;
      const auto idx = static_cast<std::size_t>(pn->tape_index);
      ++fuse_edges_[idx];
      fuse_single_[idx] = &c;
    }
  }

  const auto elems_of = [](const Node* nd) {
    return static_cast<std::int64_t>(nd->value.data().size());
  };
  const auto eligible = [this](Node* nd) {
    return nd->tape == this && nd->fuse_kind != 0 && !nd->fuse_skip && nd->fused == nullptr &&
           nd->fuse_chain < 0 && nd->requires_grad;
  };
  // Ops whose backward would re-run libm if their (bufferless) output sat
  // in a chain interior: tanh/sigmoid/exp read their own output, log's
  // consumer may read it. As chain *tails* they cost nothing -- backward
  // reads the stored output -- so runs may end on one but never continue
  // past it. Arithmetic interiors (add/mul/scalar/relu/square) replay at
  // ~a cycle per element and stay fusible.
  const auto costly_recompute = [](const Node* nd) {
    switch (static_cast<core::detail::FusedOpKind>(nd->fuse_kind - 1)) {
      case core::detail::FusedOpKind::kTanh:
      case core::detail::FusedOpKind::kSigmoid:
      case core::detail::FusedOpKind::kExp:
      case core::detail::FusedOpKind::kLog:
        return true;
      default:
        return false;
    }
  };

  // Greedy maximal runs over *consecutive* cached-order entries. Order
  // contiguity is what makes the fused backward bit-identical: in the
  // serial replay nothing executes between the chain's pullbacks, so
  // collapsing them into one sweep preserves every accumulation order.
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end) in order_
  const std::size_t on = order_.size();
  for (std::size_t i = 0; i < on;) {
    if (!eligible(order_[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j + 1 < on && (j + 1 - i) < static_cast<std::size_t>(core::detail::kMaxFusedSteps)) {
      Node* cur = order_[j];
      Node* nxt = order_[j + 1];
      if (!eligible(nxt)) break;
      if (cur == order_out_) break;  // the backward root keeps its buffers
      if (costly_recompute(cur)) break;  // transcendental tails only
      const auto ci = static_cast<std::size_t>(cur->tape_index);
      if (fuse_edges_[ci] != 1 || fuse_single_[ci] != nxt) break;
      if (elems_of(nxt) != elems_of(cur)) break;
      ++j;
    }
    if (j > i) runs.emplace_back(i, j + 1);
    i = j + 1;
  }
  if (runs.empty()) return;

  // Plan: per recording index, the node's role in the fused re-recording.
  // Chains that already exist are re-derived under fresh ids (the rebuild
  // below drops every node, so they must be re-established the same way
  // new runs are).
  fuse_plan_.assign(nn, FusePlanEntry{});
  std::int32_t nchains = 0;
  for (const auto& up : chains_) {
    if (!up || !up->complete) continue;
    const std::int32_t id = nchains++;
    for (std::size_t s = 0; s < up->members.size(); ++s) {
      Node* m = up->members[s];
      FusePlanEntry& e = fuse_plan_[static_cast<std::size_t>(m->tape_index)];
      e.sig = m->op_name;
      e.elems = up->elems;
      e.kind = m->fuse_kind;
      e.role = s + 1 == up->members.size() ? 2 : 1;
      e.chain = id;
      e.step = static_cast<std::int32_t>(s);
    }
  }
  for (const auto& [rb, re] : runs) {
    const std::int32_t id = nchains++;
    for (std::size_t s = 0; s + rb < re; ++s) {
      Node* m = order_[rb + s];
      FusePlanEntry& e = fuse_plan_[static_cast<std::size_t>(m->tape_index)];
      e.sig = m->op_name;
      e.elems = elems_of(m);
      e.kind = m->fuse_kind;
      e.role = rb + s + 1 == re ? 2 : 1;
      e.chain = id;
      e.step = static_cast<std::int32_t>(s);
    }
  }

  // Rebuild: drop every node and let the next step re-record under the
  // plan. Rolling the workspace all the way back is what actually
  // reclaims the interiors' storage -- the re-recorded graph acquires
  // value/grad windows for non-interior nodes only, and the fresh
  // high-water mark measures the fused footprint on its own.
  nodes_.clear();
  chains_.clear();
  chains_.resize(static_cast<std::size_t>(nchains));
  fused_nodes_ = 0;
  fusion_chains_ = 0;
  eliminated_bytes_ = 0;
  cursor_ = 0;
  ws_.reset();
  ws_.reset_high_water();
  ++structure_epoch_;
  order_valid_ = false;
  plan_active_ = true;
  ++fusion_rebuilds_;
}

void GraphTape::complete_chain(Node& tail) {
  FusedChain& ch = *chains_[static_cast<std::size_t>(tail.fuse_chain)];
  ch.tail = &tail;
  ch.elems = static_cast<std::int64_t>(tail.value.data().size());

  // External inputs, collected by a member-first walk that mirrors how
  // the backward DFS expands parents: tail's parents in list order, with
  // same-chain parents recursing before the walk moves on. build_order
  // expands the tail through this list, so the fused traversal meets
  // every external subtree in exactly the order the unfused one did --
  // anything else would reorder accumulations elsewhere in the graph and
  // fork the trajectory.
  ch.inputs.clear();
  const auto is_member = [&](const Node* p) {
    return p->tape == this && p->fuse_chain == tail.fuse_chain;
  };
  const auto collect = [&](const auto& self, const Node* m) -> void {
    for (const NodePtr& pp : m->parents) {
      Node* pn = pp.get();
      if (is_member(pn)) {
        self(self, pn);
      } else if (std::find(ch.inputs.begin(), ch.inputs.end(), pn) == ch.inputs.end()) {
        ch.inputs.push_back(pn);
      }
    }
  };
  collect(collect, &tail);

  // Straight-line program, one step per member in chain order.
  ch.steps.clear();
  for (std::size_t s = 0; s < ch.members.size(); ++s) {
    const Node* m = ch.members[s];
    core::detail::FusedStep st;
    st.op = static_cast<core::detail::FusedOpKind>(m->fuse_kind - 1);
    const auto operand = [&](const Node* p) -> std::int32_t {
      if (is_member(p)) return p->fuse_step;
      const auto it = std::find(ch.inputs.begin(), ch.inputs.end(), p);
      return ~static_cast<std::int32_t>(it - ch.inputs.begin());
    };
    st.a = operand(m->parents[0].get());
    if (m->parents.size() > 1) st.b = operand(m->parents[1].get());
    if (st.op == core::detail::FusedOpKind::kAddScalar ||
        st.op == core::detail::FusedOpKind::kMulScalar) {
      st.s = m->attrs[0];
    }
    ch.steps.push_back(st);
  }

  ch.in_vals.resize(ch.inputs.size());
  ch.in_grads.resize(ch.inputs.size());
  // Interiors dropped a value and a grad window each (interiors always
  // require grad -- that's how they got into the traversal).
  ch.eliminated = static_cast<std::int64_t>(ch.members.size() - 1) * 2 * ch.elems;
  ch.complete = true;
  tail.fused = &ch;
  fused_nodes_ += static_cast<std::int64_t>(ch.members.size());
  fusion_chains_ += 1;
  eliminated_bytes_ += ch.eliminated * static_cast<std::int64_t>(sizeof(double));
}

void GraphTape::run_fused_forward(Node& tail) {
  FusedChain& ch = *tail.fused;
  // Operand pointers re-resolve per sweep: parameters may live in an
  // arena that was repointed between steps.
  for (std::size_t k = 0; k < ch.inputs.size(); ++k) {
    ch.in_vals[k] = ch.inputs[k]->value.data().data();
  }
  core::detail::active_table().fused_forward(tail.value.data().data(), ch.in_vals.data(),
                                             ch.steps.data(),
                                             static_cast<std::int32_t>(ch.steps.size()), ch.elems);
}

void GraphTape::run_fused_backward(Node& tail) {
  FusedChain& ch = *tail.fused;
  for (std::size_t k = 0; k < ch.inputs.size(); ++k) {
    Node* in = ch.inputs[k];
    ch.in_vals[k] = in->value.data().data();
    ch.in_grads[k] = in->requires_grad ? in->ensure_grad().data().data() : nullptr;
  }
  core::detail::active_table().fused_backward(tail.value.data().data(), tail.grad.data().data(),
                                              ch.in_vals.data(), ch.in_grads.data(),
                                              ch.steps.data(),
                                              static_cast<std::int32_t>(ch.steps.size()), ch.elems);
}

void GraphTape::finalize_fusion_plan() {
  plan_active_ = false;
  fuse_plan_.clear();
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    if (chains_[c] && !chains_[c]->complete) unfuse_chain(static_cast<std::int32_t>(c));
  }
}

void GraphTape::abandon_fusion_plan() { finalize_fusion_plan(); }

void GraphTape::unfuse_chain(std::int32_t chain) {
  if (chain < 0 || static_cast<std::size_t>(chain) >= chains_.size()) return;
  if (!chains_[static_cast<std::size_t>(chain)]) return;
  FusedChain& ch = *chains_[static_cast<std::size_t>(chain)];
  if (ch.complete) {
    fused_nodes_ -= static_cast<std::int64_t>(ch.members.size());
    fusion_chains_ -= 1;
    eliminated_bytes_ -= ch.eliminated * static_cast<std::int64_t>(sizeof(double));
  }
  // Head-to-tail so a member's same-chain parent is repaired (has a
  // value) before the member recomputes from it.
  for (Node* m : ch.members) {
    if (m->fuse_skip) repair_node(*m);
    m->fuse_skip = false;
    m->fuse_chain = -1;
    m->fuse_step = -1;
    m->fuse_dims.clear();
    m->fused = nullptr;
  }
  chains_[static_cast<std::size_t>(chain)].reset();
  order_valid_ = false;
}

void GraphTape::repair_node(Node& n) {
  // Buffers come back as *heap* tensors, not workspace windows: a window
  // acquired now would sit above later nodes' markers and be recycled by
  // the next rollback that crosses them (window lifetime is tied to
  // recording position -- the arena invariant).
  const tensor::Shape shape(n.fuse_dims.begin(), n.fuse_dims.end());
  n.value = tensor::Tensor(shape);
  if (n.requires_grad && !n.grad_allocated) {
    n.grad = tensor::Tensor(shape);
    n.grad_allocated = true;
  }
  // Recompute this step's value exactly as the unfused op would have.
  const Node* a = n.parents[0].get();
  const Node* b = n.parents.size() > 1 ? n.parents[1].get() : nullptr;
  using K = core::detail::FusedOpKind;
  switch (static_cast<K>(n.fuse_kind - 1)) {
    case K::kAdd:
      t::add_into(n.value, a->value, b->value);
      break;
    case K::kSub:
      t::sub_into(n.value, a->value, b->value);
      break;
    case K::kMul:
      t::mul_into(n.value, a->value, b->value);
      break;
    case K::kAddScalar:
      t::add_scalar_into(n.value, a->value, n.attrs[0]);
      break;
    case K::kMulScalar:
      t::mul_scalar_into(n.value, a->value, n.attrs[0]);
      break;
    case K::kRelu:
      t::relu_into(n.value, a->value);
      break;
    case K::kTanh:
      t::tanh_into(n.value, a->value);
      break;
    case K::kSigmoid:
      t::sigmoid_into(n.value, a->value);
      break;
    case K::kExp:
      t::exp_into(n.value, a->value);
      break;
    case K::kLog:
      t::log_into(n.value, a->value);
      break;
    case K::kSquare:
      t::square_into(n.value, a->value);
      break;
  }
}

void GraphTape::truncate_fusion(std::size_t cut) {
  // Mid-rebuild structure change: the plan indexes a recording that is
  // about to diverge. Drop it (repairing half-built chains) before the
  // nodes above the cut go away.
  if (plan_active_) abandon_fusion_plan();
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    if (!chains_[c]) continue;
    FusedChain& ch = *chains_[c];
    bool crosses = false;
    for (const Node* m : ch.members) {
      if (static_cast<std::size_t>(m->tape_index) >= cut) {
        crosses = true;
        break;
      }
    }
    if (!crosses) continue;
    // Members below the cut survive as ordinary nodes (their flags die
    // with the chain); members above die with the truncation itself.
    if (ch.complete) {
      fused_nodes_ -= static_cast<std::int64_t>(ch.members.size());
      fusion_chains_ -= 1;
      eliminated_bytes_ -= ch.eliminated * static_cast<std::int64_t>(sizeof(double));
    }
    for (Node* m : ch.members) {
      if (static_cast<std::size_t>(m->tape_index) >= cut) continue;
      if (m->fuse_skip) repair_node(*m);
      m->fuse_skip = false;
      m->fuse_chain = -1;
      m->fuse_step = -1;
      m->fuse_dims.clear();
      m->fused = nullptr;
    }
    chains_[c].reset();
  }
}

void GraphTape::materialize_interior(Node* n) {
  if (n == nullptr || !n->fuse_skip) return;
  unfuse_chain(n->fuse_chain);
  // During a rebuild the rest of this chain's plan entries now point at a
  // dead slot; the next planned member will notice and abandon. Nothing
  // to do here.
}

void GraphTape::unfuse_all() {
  if (plan_active_) abandon_fusion_plan();
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    unfuse_chain(static_cast<std::int32_t>(c));
  }
  chains_.clear();
  // Allow the pass to re-fire on this same structure if fusion is turned
  // back on.
  fusion_checked_epoch_ = ~std::uint64_t{0};
}

void GraphTape::backward_from(Node* out, const tensor::Tensor& seed) {
  if (out == nullptr || out->tape != this) {
    throw std::logic_error("GraphTape::backward_from: node does not belong to this tape");
  }
  if (out->fuse_skip) {
    // Interior values (and grads) only ever exist in sweep registers;
    // there is nothing to seed. See DESIGN.md §13 on handle visibility.
    throw std::logic_error("GraphTape::backward_from: node is a fused-chain interior");
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
    if (n->fused != nullptr) {
      run_fused_backward(*n);
    } else if (n->backward_fn) {
      n->backward_fn(*n);
    }
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
