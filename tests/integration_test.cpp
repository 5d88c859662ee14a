// End-to-end training runs (tiny budgets): every optimizer family on every
// workload family must reduce the loss, and YellowFin must be competitive
// without any hand tuning.
#include <gtest/gtest.h>

#include "tensor/ops.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "async/param_server.hpp"
#include "autograd/ops.hpp"
#include "core/parallel.hpp"
#include "data/markov_text.hpp"
#include "data/synth_cifar.hpp"
#include "nn/language_model.hpp"
#include "nn/resnet.hpp"
#include "optim/adam.hpp"
#include "optim/momentum_sgd.hpp"
#include "optim/sgd.hpp"
#include "train/metrics.hpp"
#include "train/trainer.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace nn = yf::nn;
namespace t = yf::tensor;
namespace train = yf::train;

namespace {

struct CnnTask {
  yf::data::SynthCifar dataset;
  std::shared_ptr<nn::MiniResNet> model;
  t::Rng rng;

  CnnTask()
      : dataset([] {
          yf::data::SynthCifarConfig cfg;
          cfg.classes = 3;
          cfg.height = 8;
          cfg.width = 8;
          return cfg;
        }()),
        rng(100) {
    nn::MiniResNetConfig mc;
    mc.base_channels = 4;
    mc.blocks_per_stage = 1;
    mc.num_classes = 3;
    t::Rng model_rng(1);
    model = std::make_shared<nn::MiniResNet>(mc, model_rng);
  }

  train::GradFn grad_fn() {
    return [this] {
      const auto batch = dataset.sample(8, rng);
      auto loss =
          ag::softmax_cross_entropy(model->forward(ag::Variable(batch.images)), batch.labels);
      loss.backward();
      return loss.value().item();
    };
  }
};

struct LmTask {
  yf::data::MarkovText dataset;
  std::shared_ptr<nn::LSTMLanguageModel> model;
  t::Rng rng;

  /// `seed` drives the minibatch stream; the model init is fixed.
  explicit LmTask(std::uint64_t seed = 200)
      : dataset([] {
          yf::data::MarkovTextConfig cfg;
          cfg.vocab = 16;
          cfg.branching = 2;
          return cfg;
        }()),
        rng(seed) {
    nn::LanguageModelConfig lc;
    lc.vocab = 16;
    lc.embed_dim = 8;
    lc.hidden = 12;
    lc.layers = 1;
    t::Rng model_rng(2);
    model = std::make_shared<nn::LSTMLanguageModel>(lc, model_rng);
  }

  train::GradFn grad_fn() {
    return [this] {
      const auto tokens = dataset.sample_batch(6, 11, rng);
      auto loss = model->loss(tokens, 6, 11);
      loss.backward();
      return loss.value().item();
    };
  }
};

double improvement(const std::vector<double>& losses) {
  const auto smoothed = train::smooth_uniform(losses, 20);
  return smoothed.front() - train::curve_min(smoothed);
}

}  // namespace

TEST(Integration, MomentumSgdTrainsCnn) {
  CnnTask task;
  yf::optim::MomentumSGD opt(task.model->parameters(), 0.05, 0.9);
  const auto result = train::train(opt, task.grad_fn(), [] { train::TrainOptions o; o.iterations = 150; return o; }());
  EXPECT_FALSE(result.diverged);
  EXPECT_GT(improvement(result.losses), 0.2);
}

TEST(Integration, AdamTrainsCnn) {
  CnnTask task;
  yf::optim::Adam opt(task.model->parameters(), 0.003);
  const auto result = train::train(opt, task.grad_fn(), [] { train::TrainOptions o; o.iterations = 150; return o; }());
  EXPECT_GT(improvement(result.losses), 0.2);
}

TEST(Integration, YellowFinTrainsCnnWithoutTuning) {
  CnnTask task;
  yf::tuner::YellowFin opt(task.model->parameters());
  const auto result = train::train(opt, task.grad_fn(), [] { train::TrainOptions o; o.iterations = 250; return o; }());
  EXPECT_FALSE(result.diverged);
  EXPECT_GT(improvement(result.losses), 0.2);
}

TEST(Integration, SgdTrainsLstm) {
  LmTask task;
  yf::optim::SGD opt(task.model->parameters(), 0.5);
  const auto result = train::train(opt, task.grad_fn(), [] { train::TrainOptions o; o.iterations = 120; return o; }());
  EXPECT_GT(improvement(result.losses), 0.1);
}

TEST(Integration, YellowFinTrainsLstm) {
  LmTask task;
  yf::tuner::YellowFin opt(task.model->parameters());
  const auto result = train::train(opt, task.grad_fn(), [] { train::TrainOptions o; o.iterations = 250; return o; }());
  EXPECT_FALSE(result.diverged);
  EXPECT_GT(improvement(result.losses), 0.1);
}

TEST(Integration, TrainerDivergenceGuardTrips) {
  CnnTask task;
  // Insane learning rate: must trip the guard, not crash, and pad losses.
  yf::optim::MomentumSGD opt(task.model->parameters(), 1e6, 0.9);
  train::TrainOptions opts;
  opts.iterations = 60;
  opts.divergence_bound = 1e6;
  const auto result = train::train(opt, task.grad_fn(), opts);
  EXPECT_TRUE(result.diverged);
  EXPECT_EQ(result.losses.size(), 60u);
  EXPECT_EQ(result.losses.back(), 1e6);
}

TEST(Integration, TrainerValidationProbe) {
  CnnTask task;
  yf::optim::Adam opt(task.model->parameters(), 0.003);
  train::TrainOptions opts;
  opts.iterations = 40;
  opts.val_every = 10;
  opts.val_fn = [] { return 42.0; };
  const auto result = train::train(opt, task.grad_fn(), opts);
  ASSERT_EQ(result.val_values.size(), 4u);
  EXPECT_EQ(result.val_iterations[0], 10);
  EXPECT_EQ(result.val_values[3], 42.0);
}

TEST(Integration, TrainerRejectsNegativeIterations) {
  LmTask task;
  yf::optim::SGD opt(task.model->parameters(), 0.5);
  train::TrainOptions opts;
  opts.iterations = -1;
  try {
    (void)train::train(opt, task.grad_fn(), opts);
    FAIL() << "a negative iteration count must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("iterations"), std::string::npos) << e.what();
  }
}

TEST(Integration, TrainerScheduleLowersLr) {
  CnnTask task;
  yf::optim::MomentumSGD opt(task.model->parameters(), 0.05, 0.9);
  yf::optim::ExponentialDecaySchedule schedule(0.5);
  train::TrainOptions opts;
  opts.iterations = 30;
  opts.schedule = &schedule;
  opts.epoch_length = 10;
  opts.base_lr = 0.04;
  train::train(opt, task.grad_fn(), opts);
  // After 30 iterations we are in epoch 2: lr = 0.04 * 0.25.
  EXPECT_NEAR(opt.lr(), 0.01, 1e-12);
}

TEST(Integration, ClipNormAppliedByTrainer) {
  CnnTask task;
  yf::optim::MomentumSGD opt(task.model->parameters(), 0.05, 0.9);
  train::TrainOptions opts;
  opts.iterations = 20;
  opts.clip_norm = 1e-9;  // absurdly tight: updates become negligible
  const auto before = nn::flatten_values(task.model->parameters());
  train::train(opt, task.grad_fn(), opts);
  const auto after = nn::flatten_values(task.model->parameters());
  EXPECT_LT(t::max_abs_diff(before, after), 1e-6);
}

TEST(Integration, OneWorkerServerEngineReproducesTrain) {
  // The YF_ENGINE=server bench path with one worker: train_server seeds
  // its replica from the same seed as the synchronous task, and the
  // replica pushing through a 4-shard server (no measurement) must
  // retrace the synchronous train() losses bit for bit.
  constexpr std::int64_t kSteps = 40;
  constexpr std::uint64_t kSeed = 200;
  LmTask sync_task(kSeed);
  yf::tuner::YellowFin sync_opt(sync_task.model->parameters());
  train::TrainOptions topts;
  topts.iterations = kSteps;
  const auto sync = train::train(sync_opt, sync_task.grad_fn(), topts);

  LmTask master(kSeed);
  auto opt = std::make_shared<yf::tuner::YellowFin>(master.model->parameters());
  yf::async::ParamServerOptions sopts;
  sopts.shards = 4;
  sopts.measure = false;
  yf::async::ShardedParamServer server(opt, sopts);
  const train::ReplicaFactory make_replica = [](std::uint64_t seed) {
    auto replica = std::make_shared<LmTask>(seed);
    return yf::async::ServerWorker{replica->model->parameters(),
                                   [replica, step = replica->grad_fn()] { return step(); }};
  };
  yf::async::ServerRunOptions ropts;
  ropts.steps_per_worker = kSteps;
  const auto served = train::train_server(server, make_replica, 1, kSeed, ropts);

  ASSERT_EQ(served.losses.size(), sync.losses.size());
  for (std::size_t i = 0; i < sync.losses.size(); ++i) {
    EXPECT_EQ(served.losses[i], sync.losses[i]) << "step " << i;
  }
}

TEST(Integration, RunWorkersFromInsidePoolTasks) {
  // One pool task per pool thread, each running a one-worker run_workers
  // on its own server. Worker loops own their threads, so these nested
  // runs need no free pool thread and must finish.
  constexpr std::int64_t kSteps = 20;
  constexpr std::int64_t kDim = 8;
  auto& pool = yf::core::ThreadPool::instance();
  const std::size_t tasks = pool.size();
  std::vector<std::int64_t> updates(tasks, -1);
  std::vector<std::future<void>> futures;
  for (std::size_t i = 0; i < tasks; ++i) {
    futures.push_back(pool.submit([&updates, i] {
      ag::Variable master(t::Tensor::full({kDim}, 1.0), true);
      auto opt = std::make_shared<yf::optim::MomentumSGD>(std::vector<ag::Variable>{master},
                                                          0.1, 0.5);
      yf::async::ShardedParamServer server(opt, {});
      ag::Variable replica(t::Tensor::zeros({kDim}), true);
      const std::vector<yf::async::ServerWorker> workers = {{{replica}, [replica] {
        const auto v = replica.value().data();
        auto g = replica.node()->ensure_grad().data();
        double loss = 0.0;
        for (std::size_t j = 0; j < v.size(); ++j) {
          g[j] = v[j];
          loss += 0.5 * v[j] * v[j];
        }
        return loss;
      }}};
      yf::async::ServerRunOptions ropts;
      ropts.steps_per_worker = kSteps;
      updates[i] = yf::async::run_workers(server, workers, ropts).total_updates;
    }));
  }
  for (std::size_t i = 0; i < tasks; ++i) {
    if (futures[i].wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      // The blocked tasks reference this frame: exit instead of unwinding.
      std::fprintf(stderr, "RunWorkersFromInsidePoolTasks: pool task %zu of %zu still running "
                           "after 30 s (nested run_workers deadlocked)\n", i, tasks);
      std::_Exit(1);
    }
    futures[i].get();
    EXPECT_EQ(updates[i], kSteps) << "task " << i;
  }
}
