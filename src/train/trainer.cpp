#include "train/trainer.hpp"

#include <cmath>
#include <stdexcept>

#include "autograd/tape.hpp"
#include "optim/clipping.hpp"

namespace yf::train {

TrainResult train(optim::Optimizer& optimizer, const GradFn& grad_fn, const TrainOptions& opts) {
  if (opts.iterations < 0) throw std::invalid_argument("train: iterations must be >= 0");
  if (opts.schedule && (opts.epoch_length <= 0 || opts.base_lr <= 0.0)) {
    throw std::invalid_argument("train: schedule requires epoch_length and base_lr");
  }
  TrainResult result;
  result.losses.reserve(static_cast<std::size_t>(opts.iterations));
  auto& params = const_cast<std::vector<autograd::Variable>&>(optimizer.params());
  // One tape per call: every grad_fn below records onto it and, after
  // warm-up, replays it; a val_fn records its own graph after the step's.
  autograd::GraphTape tape;
  autograd::TapeScope tape_scope(&tape);

  for (std::int64_t it = 0; it < opts.iterations; ++it) {
    if (result.diverged) {
      result.losses.push_back(opts.divergence_bound);
      continue;
    }
    if (opts.schedule) {
      const auto epoch = it / opts.epoch_length;
      optimizer.set_lr(opts.base_lr * opts.schedule->factor(epoch));
    }
    tape.begin_step();
    optimizer.zero_grad();
    const double loss = grad_fn();
    if (!std::isfinite(loss) || loss > opts.divergence_bound) {
      result.diverged = true;
      result.losses.push_back(opts.divergence_bound);
      continue;
    }
    if (opts.clip_norm) optim::clip_grad_norm(params, *opts.clip_norm);
    optimizer.step();
    result.losses.push_back(loss);

    if (opts.val_fn && opts.val_every > 0 && (it + 1) % opts.val_every == 0) {
      result.val_values.push_back(opts.val_fn());
      result.val_iterations.push_back(it + 1);
    }
  }
  return result;
}

TrainResult train_server(async::ShardedParamServer& server, const ReplicaFactory& make_replica,
                         std::int64_t workers, std::uint64_t seed,
                         const async::ServerRunOptions& run_opts, double divergence_bound) {
  if (workers < 1) throw std::invalid_argument("train_server: workers must be >= 1");
  std::vector<async::ServerWorker> replicas;
  replicas.reserve(static_cast<std::size_t>(workers));
  for (std::int64_t w = 0; w < workers; ++w) {
    replicas.push_back(make_replica(seed + 100000 * static_cast<std::uint64_t>(w)));
  }
  const auto run = async::run_workers(server, replicas, run_opts);
  TrainResult result;
  result.losses.reserve(run.losses.size());
  for (double loss : run.losses) {
    if (!std::isfinite(loss) || loss > divergence_bound) {
      result.diverged = true;
      loss = divergence_bound;
    }
    result.losses.push_back(loss);
  }
  return result;
}

}  // namespace yf::train
