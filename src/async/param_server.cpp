#include "async/param_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "async/total_momentum.hpp"
#include "core/kernels.hpp"

namespace yf::async {

namespace {

optim::Optimizer& checked(const std::shared_ptr<optim::Optimizer>& optimizer, const char* who) {
  if (!optimizer) throw std::invalid_argument(std::string(who) + ": null optimizer");
  return *optimizer;
}

}  // namespace

ShardedParamServer::ShardedParamServer(std::shared_ptr<optim::Optimizer> optimizer,
                                       const ParamServerOptions& opts)
    : optimizer_(std::move(optimizer)),
      control_(checked(optimizer_, "ShardedParamServer"), opts.mu_target),
      opts_(opts),
      controller_(opts.gamma) {
  if (opts_.measure && opts_.history < 3) {
    throw std::invalid_argument(
        "ShardedParamServer: measurement needs history >= 3 (x_{j-1}, x_j, x_{j+1})");
  }
  if (opts_.closed_loop) {
    if (!opts_.measure) {
      throw std::invalid_argument("ShardedParamServer: closed loop requires measurement");
    }
    control_.require_closed_loop_support("ShardedParamServer");
    // Start the feedback loop from the currently applied momentum so the
    // first updates nudge rather than jump.
    controller_ = tuner::ClosedLoopController(opts_.gamma, control_.applied());
  }

  size_ = optimizer_->arena().size();
  const std::int64_t k = std::clamp<std::int64_t>(opts_.shards, 1, size_);
  const std::int64_t base = size_ / k;
  const std::int64_t extra = size_ % k;  // first `extra` shards get one more
  std::int64_t offset = 0;
  for (std::int64_t i = 0; i < k; ++i) {
    Shard& shard = shards_.emplace_back();
    shard.lo = offset;
    shard.hi = offset + base + (i < extra ? 1 : 0);
    offset = shard.hi;
    if (opts_.measure) {
      // Fixed ring of iterate snapshots: the outer vector never grows
      // after this, and slot storage is recycled in steady state.
      shard.history.resize(static_cast<std::size_t>(opts_.history));
      const auto values = optimizer_->arena().values();
      const auto lo = static_cast<std::size_t>(shard.lo);
      shard.append(values.subspan(lo, static_cast<std::size_t>(shard.hi - shard.lo)));
    }
  }
}

const std::vector<double>* ShardedParamServer::Shard::lookup(std::int64_t v) const {
  const std::int64_t idx = v - history_base;
  if (idx < 0 || idx >= static_cast<std::int64_t>(history_count)) return nullptr;
  const std::size_t slot = (history_head + static_cast<std::size_t>(idx)) % history.size();
  return &history[slot];
}

void ShardedParamServer::Shard::append(std::span<const double> window) {
  if (history_count == history.size()) {
    // Ring full: drop the oldest version and recycle its slot (the
    // vector's capacity survives the assign below -- no allocation).
    history_head = (history_head + 1) % history.size();
    ++history_base;
    --history_count;
  }
  const std::size_t slot = (history_head + history_count) % history.size();
  history[slot].assign(window.begin(), window.end());
  ++history_count;
}

std::pair<std::int64_t, std::int64_t> ShardedParamServer::shard_range(std::size_t k) const {
  return {shards_.at(k).lo, shards_.at(k).hi};
}

std::int64_t ShardedParamServer::shard_version(std::size_t k) const {
  const Shard& shard = shards_.at(k);
  std::scoped_lock lock(shard.mu);
  return shard.version;
}

tensor::Tensor ShardedParamServer::shard_values(std::size_t k) const {
  const Shard& shard = shards_.at(k);
  return optimizer_->arena().values_window(shard.lo, shard.hi - shard.lo);
}

PullTicket ShardedParamServer::pull(std::span<double> dst) const {
  PullTicket ticket;
  pull(dst, ticket);
  return ticket;
}

void ShardedParamServer::pull(std::span<double> dst, PullTicket& ticket) const {
  if (static_cast<std::int64_t>(dst.size()) != size_) {
    throw std::invalid_argument("ShardedParamServer::pull: destination size mismatch");
  }
  ticket.versions.clear();
  ticket.versions.reserve(shards_.size());
  const auto values = optimizer_->arena().values();
  for (const Shard& shard : shards_) {
    const auto n = static_cast<std::size_t>(shard.hi - shard.lo);
    const auto lo = static_cast<std::size_t>(shard.lo);
    std::scoped_lock lock(shard.mu);
    core::copy(dst.subspan(lo, n), values.subspan(lo, n));
    ticket.versions.push_back(shard.version);
  }
}

ApplyStats ShardedParamServer::push(std::span<double> grad, const PullTicket& ticket) {
  if (static_cast<std::int64_t>(grad.size()) != size_) {
    throw std::invalid_argument("ShardedParamServer::push: gradient size mismatch");
  }
  if (ticket.versions.size() != shards_.size()) {
    throw std::invalid_argument("ShardedParamServer::push: ticket does not match shards");
  }
  // Eq. 37 ratio scratch, room for one ratio per coordinate. Thread-local
  // with retained capacity: a worker thread lives for its whole run and a
  // master service thread for its connection, so after a thread's first
  // push the steady state performs no heap allocation.
  static thread_local std::vector<double> ratios;
  ratios.resize(static_cast<std::size_t>(size_));
  std::size_t ratio_count = 0;

  // Opening global stage: measurement / tuning on the full gradient.
  optim::ApplyPlan plan;
  {
    std::scoped_lock lock(stage_mu_);
    plan = optimizer_->begin_apply(grad);
  }

  // Per-shard stages: stage the gradient window, fused sweep, version
  // bump, history snapshot, and the Eq. 37 ratio contributions -- all
  // under that shard's lock only, so two workers can apply different
  // gradients to disjoint shards in parallel.
  auto& arena = optimizer_->arena();
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = shards_[k];
    const auto lo = static_cast<std::size_t>(shard.lo);
    const auto n = static_cast<std::size_t>(shard.hi - shard.lo);
    std::scoped_lock lock(shard.mu);
    core::copy(arena.grads().subspan(lo, n), grad.subspan(lo, n));
    optimizer_->step_span(plan, shard.lo, shard.hi);
    ++shard.version;
    if (!opts_.measure) continue;
    shard.append(arena.values().subspan(lo, n));
    // This gradient was computed at shard iterate x_j; with x_{j+1} now
    // guaranteed to exist (we just applied an update), solve Eq. 16 for
    // mu_T elementwise wherever the history still covers j-1 .. j+1.
    const std::int64_t j = ticket.versions[k];
    if (j < 1) continue;
    const auto* x_prev = shard.lookup(j - 1);
    const auto* x_read = shard.lookup(j);
    const auto* x_next = shard.lookup(j + 1);
    if (!x_prev || !x_read || !x_next) continue;
    ratio_count += eq37_ratios(*x_prev, *x_read, *x_next, grad.subspan(lo, n), plan.lr,
                               kEq37DenomEps, std::span(ratios).subspan(ratio_count, n));
  }

  // This push's mu_hat_T, from its own ratios: no other push reads them,
  // so the selection runs before, not under, the closing stage lock.
  std::optional<double> estimate;
  if (ratio_count > 0) estimate = median_inplace(std::span(ratios).first(ratio_count));

  // Closing global stage: advance the optimizer and run the Algorithm 5
  // feedback.
  ApplyStats stats;
  stats.applied_momentum = plan.mu;
  stats.mu_hat_total = estimate;
  {
    std::scoped_lock lock(stage_mu_);
    optimizer_->end_apply(plan);
    stats.update_index = updates_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (estimate && opts_.closed_loop) {
      control_.set_applied(controller_.update(control_.target(), *estimate));
    }
    stats.target_momentum = control_.target();
  }
  return stats;
}

void ShardedParamServer::save_state(core::StateWriter& w) const {
  std::scoped_lock stage_lock(stage_mu_);
  w.u64(static_cast<std::uint64_t>(size_));
  w.u64(shards_.size());
  const auto values = optimizer_->arena().values();
  for (const Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    w.i64(shard.lo);
    w.i64(shard.hi);
    w.i64(shard.version);
    w.f64_span(values.subspan(static_cast<std::size_t>(shard.lo),
                              static_cast<std::size_t>(shard.hi - shard.lo)));
    w.i64(shard.history_base);
    w.u64(shard.history_count);
    // Ring entries oldest -> newest; load_state rebuilds the ring with the
    // head at slot 0, which lookup() cannot distinguish from the original.
    for (std::size_t i = 0; i < shard.history_count; ++i) {
      const std::size_t slot = (shard.history_head + i) % shard.history.size();
      w.f64_span(shard.history[slot]);
    }
  }
  w.i64(updates_.load(std::memory_order_relaxed));
  w.f64(controller_.applied_momentum());
  optimizer_->save_state(w);
}

void ShardedParamServer::load_state(core::StateReader& r) {
  std::scoped_lock stage_lock(stage_mu_);
  if (r.u64() != static_cast<std::uint64_t>(size_)) {
    throw core::StateError("ShardedParamServer: snapshot arena size differs from configuration");
  }
  if (r.u64() != shards_.size()) {
    throw core::StateError("ShardedParamServer: snapshot shard count differs from configuration");
  }
  const auto values = optimizer_->arena().values();
  for (Shard& shard : shards_) {
    std::scoped_lock lock(shard.mu);
    const std::int64_t lo = r.i64();
    const std::int64_t hi = r.i64();
    if (lo != shard.lo || hi != shard.hi) {
      throw core::StateError("ShardedParamServer: snapshot shard geometry mismatch");
    }
    shard.version = r.i64();
    const auto width = static_cast<std::size_t>(shard.hi - shard.lo);
    r.f64_span(values.subspan(static_cast<std::size_t>(shard.lo), width));
    shard.history_base = r.i64();
    const std::uint64_t count = r.u64();
    if (count > shard.history.size()) {
      throw core::StateError("ShardedParamServer: snapshot history exceeds the configured ring");
    }
    shard.history_head = 0;
    shard.history_count = static_cast<std::size_t>(count);
    for (std::size_t i = 0; i < shard.history_count; ++i) {
      shard.history[i].resize(width);
      r.f64_span(shard.history[i]);
    }
  }
  const std::int64_t updates = r.i64();
  if (updates < 0) throw core::StateError("ShardedParamServer: negative update counter");
  updates_.store(updates, std::memory_order_relaxed);
  const double applied = r.f64();
  if (opts_.closed_loop) {
    // Re-seed the feedback loop at the checkpointed applied momentum; the
    // optimizer's own load below restores the matching override/target.
    controller_ = tuner::ClosedLoopController(opts_.gamma, applied);
  }
  optimizer_->load_state(r);
}

}  // namespace yf::async
