// Synchronous training loop shared by tests, examples and benches.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "async/async_simulator.hpp"  // for GradFn
#include "async/param_server.hpp"
#include "optim/lr_schedule.hpp"
#include "optim/optimizer.hpp"

namespace yf::train {

/// `GradFn` computes the minibatch loss at the current parameters and
/// leaves gradients on them (zero_grad is called by the loop).
using async::GradFn;

struct TrainOptions {
  std::int64_t iterations = 1000;
  /// Fixed-threshold gradient clipping (the manual baseline of Table 1);
  /// YellowFin's adaptive clipping is internal to the optimizer instead.
  std::optional<double> clip_norm;
  /// Epoch-indexed lr schedule: factor applied to `base_lr` each epoch.
  const optim::LrSchedule* schedule = nullptr;
  std::int64_t epoch_length = 0;  ///< iterations per epoch (0 = no epochs)
  double base_lr = 0.0;           ///< required when schedule != nullptr
  /// Optional validation probe, evaluated every `val_every` iterations.
  std::function<double()> val_fn;
  std::int64_t val_every = 0;
  /// Abort when loss is NaN/inf or exceeds this bound (divergence guard);
  /// remaining iterations are filled with the bound so curves stay rectangular.
  double divergence_bound = 1e9;
};

struct TrainResult {
  std::vector<double> losses;               ///< per-iteration training loss
  std::vector<double> val_values;           ///< validation probe outputs
  std::vector<std::int64_t> val_iterations; ///< iterations they were taken at
  bool diverged = false;
};

/// Run `opts.iterations` steps. The loop records every grad_fn and val_fn
/// call onto an autograd::GraphTape it owns for this call and begins a
/// tape step before each grad_fn, so a fixed-structure step replays its
/// cached graph (zero steady-state allocations, DESIGN.md §8) with the
/// same losses as the per-step heap graph. Variables the closures create
/// are tape handles: do not keep them past the call.
TrainResult train(optim::Optimizer& optimizer, const GradFn& grad_fn, const TrainOptions& opts);

/// Builds one worker replica (parameters and gradient closure) from a seed.
using ReplicaFactory = std::function<async::ServerWorker(std::uint64_t seed)>;

/// Asynchronous counterpart of train(): build `workers` (>= 1) replicas,
/// seeding worker w with `seed + 100000 * w`, drive `server` with them
/// through async::run_workers, and shape the per-push losses (in server
/// apply order) into a TrainResult. Worker 0 draws `seed` itself, so one
/// worker retraces train() on a task built from `seed`. Unlike train(),
/// workers run to completion; divergent losses are clamped to
/// `divergence_bound` and flagged rather than aborting the run.
TrainResult train_server(async::ShardedParamServer& server, const ReplicaFactory& make_replica,
                         std::int64_t workers, std::uint64_t seed,
                         const async::ServerRunOptions& run_opts,
                         double divergence_bound = 1e9);

}  // namespace yf::train
