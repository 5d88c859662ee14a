// Sharded parameter server: the real-asynchrony training engine
// (DESIGN.md §5).
//
// Partitions an optimizer's core::ParamArena into K contiguous shards.
// Each shard owns a lock, a version counter (number of gradient
// applications it has absorbed), and a short iterate history. Workers run
// on their own threads against their own model replicas:
//
//   ticket = pull(replica values)    per-shard locked copy of the master
//                                    values; records each shard's version
//   ... compute gradient on the replica (forward/backward, oracle, ...)
//   stats = push(replica grads, ticket)
//
// push() decomposes one application into the optimizer's sharded protocol
// (optim::ApplyPlan): a global measure/tune stage under the server's
// stage lock (YellowFin clips and retunes here), then one fused
// `step_span` per shard under that shard's lock — so two workers can be
// applying different gradients to different shards at the same time, and
// staleness is emergent rather than scripted.
//
// Total-momentum measurement (Eq. 37) hooks into the same shard locks:
// each shard keeps its last `history` iterate snapshots keyed by version.
// A pushed gradient was computed at per-shard versions j (the ticket), so
// the elementwise ratios
//
//   (x_{j+1} - x_j + alpha g)_i / (x_j - x_{j-1})_i
//
// are exact per shard; the median over all shards' coordinates is this
// push's mu_hat_T. With closed_loop on, the estimate feeds the
// tuner::ClosedLoopController (Algorithm 5) which overrides the applied
// algorithmic momentum — YellowFin's feedback loop under real threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "optim/optimizer.hpp"
#include "tensor/tensor.hpp"
#include "tuner/closed_loop.hpp"

namespace yf::async {

struct ParamServerOptions {
  std::int64_t shards = 4;  ///< clamped to [1, arena size]
  /// Keep per-shard iterate history and estimate mu_hat_T on every push.
  bool measure = true;
  std::int64_t history = 64;  ///< retained iterate versions per shard (>= 3)
  /// Algorithm 5: feed mu_hat_T back into the applied momentum. Requires
  /// `measure` and a YellowFin optimizer (target = its tuned momentum) or
  /// a MomentumSGD plus an explicit `mu_target`.
  bool closed_loop = false;
  double gamma = 0.01;               ///< feedback gain
  std::optional<double> mu_target;   ///< closed-loop target for MomentumSGD
};

/// Per-shard versions observed by a pull; pairs a gradient with the
/// iterates it was computed against.
struct PullTicket {
  std::vector<std::int64_t> versions;
};

struct ApplyStats {
  std::int64_t update_index = 0;  ///< 1-based order of this application
  std::optional<double> mu_hat_total;
  double applied_momentum = 0.0;  ///< algorithmic momentum used this push
  double target_momentum = 0.0;   ///< tuner target (or mu_target)

  /// The one encoding of this record, which the push reply and the
  /// checkpoint's push ledger both carry: i64 update index, u8 1 when
  /// mu_hat_total is set, f64 mu_hat_total (0 when unset), f64 applied
  /// and f64 target momentum.
  void encode(core::ByteWriter& w) const {
    w.i64(update_index);
    w.u8(mu_hat_total ? 1 : 0);
    w.f64(mu_hat_total.value_or(0.0));
    w.f64(applied_momentum);
    w.f64(target_momentum);
  }
  template <class Error>
  static ApplyStats decode(core::ByteReader<Error>& r) {
    ApplyStats s;
    s.update_index = r.i64();
    const bool has_mu = r.u8() != 0;
    const double mu = r.f64();
    if (has_mu) s.mu_hat_total = mu;
    s.applied_momentum = r.f64();
    s.target_momentum = r.f64();
    return s;
  }
};

class ShardedParamServer {
 public:
  explicit ShardedParamServer(std::shared_ptr<optim::Optimizer> optimizer,
                              const ParamServerOptions& opts = {});

  /// Total scalars served (the arena size).
  std::int64_t size() const { return size_; }
  std::int64_t shard_count() const { return static_cast<std::int64_t>(shards_.size()); }
  /// [lo, hi) scalar range of shard k.
  std::pair<std::int64_t, std::int64_t> shard_range(std::size_t k) const;
  /// Number of gradient applications shard k has absorbed.
  std::int64_t shard_version(std::size_t k) const;
  /// Rank-1 view aliasing shard k's window of the master value buffer.
  tensor::Tensor shard_values(std::size_t k) const;

  /// Copy the master parameters into `dst` (size() scalars), shard by
  /// shard under the shard locks; returns the per-shard versions read.
  PullTicket pull(std::span<double> dst) const;

  /// Allocation-free pull: refills `ticket` in place (its capacity is
  /// retained across steps, so a worker's steady-state pull touches no
  /// heap). Semantically identical to the returning overload.
  void pull(std::span<double> dst, PullTicket& ticket) const;

  /// Apply one worker gradient (size() scalars, computed at the iterates
  /// `ticket` describes). `grad` may be clipped in place by the
  /// optimizer's global stage. Thread-safe; blocks only per shard. The
  /// Eq. 37 ratio scratch is thread-local with retained capacity, so a
  /// worker's steady-state push touches no heap.
  ApplyStats push(std::span<double> grad, const PullTicket& ticket);

  /// Total gradients applied so far.
  std::int64_t updates() const { return updates_.load(std::memory_order_relaxed); }

  /// Serialize/restore the full server state bit-exactly for
  /// checkpoint/restore (DESIGN.md §14): master values, per-shard
  /// versions and iterate-history rings, the update counter, the
  /// controller's applied momentum, and the optimizer's own save_state.
  /// Geometry and options are configuration; load_state validates them
  /// against this instance and throws core::StateError on mismatch. Both
  /// take the stage lock and each shard lock for race-free byte access,
  /// but callers must quiesce in-flight pushes for a consistent cut (the
  /// dist master serializes checkpoints against pushes with its own
  /// lock).
  void save_state(core::StateWriter& w) const;
  void load_state(core::StateReader& r);

  optim::Optimizer& optimizer() { return *optimizer_; }
  const optim::Optimizer& optimizer() const { return *optimizer_; }

 private:
  struct Shard {
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    mutable std::mutex mu;
    std::int64_t version = 0;
    /// Iterate snapshots of this shard's window, held in a fixed ring so
    /// the steady-state push recycles slot storage instead of allocating:
    /// logical versions [history_base, history_base + history_count), the
    /// oldest at ring index history_head.
    std::int64_t history_base = 0;
    std::size_t history_head = 0;
    std::size_t history_count = 0;
    std::vector<std::vector<double>> history;  ///< ring, capacity = opts.history

    const std::vector<double>* lookup(std::int64_t version) const;
    void append(std::span<const double> window);
  };

  std::shared_ptr<optim::Optimizer> optimizer_;
  /// Resolves the Algorithm 5 knobs (target / applied momentum) — the
  /// same tuner::MomentumControl contract as the async simulator. Only
  /// touched under stage_mu_ once workers are running.
  tuner::MomentumControl control_;
  ParamServerOptions opts_;
  std::int64_t size_ = 0;
  std::deque<Shard> shards_;  ///< deque: Shard holds a mutex (immovable)
  /// Serializes the optimizer's global stages (begin/end_apply) and the
  /// controller.
  mutable std::mutex stage_mu_;
  std::atomic<std::int64_t> updates_{0};
  tuner::ClosedLoopController controller_;
};

// ---------------------------------------------------------------------------
// Worker harness: run replicas against an in-process server.
// ---------------------------------------------------------------------------

/// A worker's model replica: parameters with the same total size as the
/// master (they are flattened into a worker-local arena) plus a gradient
/// closure that computes a minibatch loss and leaves gradients on them.
/// The worker loop gives each worker body its own autograd::GraphTape on
/// its thread and begins a tape step before every grad_fn call, so each
/// replica replays its cached graph out of its own workspace instead of
/// contending on the global allocator.
struct ServerWorker {
  std::vector<autograd::Variable> params;
  std::function<double()> grad_fn;
};

/// Options of the one worker loop (dist::ChannelRunOptions is this type).
struct ServerRunOptions {
  std::int64_t steps_per_worker = 100;
  /// Microseconds of simulated gradient latency between pull and push; on
  /// toy problems the gradient is so fast that pushes serialize and no
  /// staleness emerges (same knob as the old hogwild trainer).
  std::int64_t compute_delay_us = 0;
};

struct ServerRunResult {
  std::vector<ApplyStats> stats;  ///< sorted by update_index (1-based)
  std::vector<double> losses;     ///< losses[i]: loss of stats[i]'s gradient
  /// Largest update_index the run saw: server.updates() after the run
  /// whenever the run is the server's only pusher.
  std::int64_t total_updates = 0;
};

/// Run every worker for `steps_per_worker` (>= 0) pull/compute/push rounds,
/// one thread per worker. Worker parameters must not alias the master
/// arena. This adapts the workers onto one dist::InprocChannel each and
/// calls dist::run_channel_workers, the one worker loop; it is defined in
/// dist/channel.cpp beside that loop.
ServerRunResult run_workers(ShardedParamServer& server,
                            const std::vector<ServerWorker>& workers,
                            const ServerRunOptions& opts = {});

}  // namespace yf::async
