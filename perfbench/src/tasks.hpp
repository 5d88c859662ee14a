// The paper-reproduction tasks the workloads train, rebuilt from the
// library's public data/nn API with the exact configuration the
// bench/common.hpp helpers use (make_char_lm_task, make_cifar_task and
// make_optimizer's quick-mode YellowFin), so a workload steps the same
// trajectory a table2/fig1/fig4 run does. The benchmark keeps its own copy
// so it can time the data, forward and backward calls separately, and so
// a change to the reproductions' harness cannot move the benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/variable.hpp"
#include "bench.hpp"
#include "data/markov_text.hpp"
#include "data/synth_cifar.hpp"
#include "nn/language_model.hpp"
#include "nn/resnet.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

namespace perfbench {

/// One minibatch step of a task, split at the layer boundaries the traced
/// run times: draw the batch (data), compute the loss (nn + autograd
/// recording); the caller runs backward.
class TrainTask {
 public:
  virtual ~TrainTask() = default;
  virtual std::vector<yf::autograd::Variable> params() const = 0;
  virtual void sample() = 0;
  virtual yf::autograd::Variable loss() = 0;
};

/// table2's TS-sub language: order-1 Markov text over 33 symbols.
inline yf::data::MarkovTextConfig ts_text_config() {
  yf::data::MarkovTextConfig cfg;
  cfg.vocab = 33;
  cfg.branching = 3;
  cfg.seed = 13;
  return cfg;
}

/// table2's TS-sub model: 2-layer LSTM, 4.9k parameters.
inline yf::nn::LanguageModelConfig ts_model_config() {
  yf::nn::LanguageModelConfig cfg;
  cfg.vocab = 33;
  cfg.embed_dim = 12;
  cfg.hidden = 16;
  cfg.layers = 2;
  return cfg;
}

/// Model init of every workload: the reproductions' quick-mode seed. The
/// workload seed draws only the inputs (token batches, images, request
/// streams), so the losses of different seeds stay comparable.
inline constexpr std::uint64_t kInitSeed = 1;

/// TS-sub char LM: batch 6, 12 predicted tokens per row (seq_plus1 13).
/// `seed` draws the minibatch stream as in make_char_lm_task(seed); the
/// language is fixed.
class CharLmTask final : public TrainTask {
 public:
  static constexpr std::int64_t kBatch = 6;
  static constexpr std::int64_t kSeqPlus1 = 13;

  explicit CharLmTask(std::uint64_t seed)
      : text_(ts_text_config()), model_(make_model(kInitSeed)), rng_(seed + 2000) {}

  std::vector<yf::autograd::Variable> params() const override { return model_->parameters(); }
  void sample() override { tokens_ = text_.sample_batch(kBatch, kSeqPlus1, rng_); }
  yf::autograd::Variable loss() override { return model_->loss(tokens_, kBatch, kSeqPlus1); }

 private:
  static std::unique_ptr<yf::nn::LSTMLanguageModel> make_model(std::uint64_t seed) {
    yf::tensor::Rng init(seed);
    return std::make_unique<yf::nn::LSTMLanguageModel>(ts_model_config(), init);
  }

  yf::data::MarkovText text_;
  std::unique_ptr<yf::nn::LSTMLanguageModel> model_;
  yf::tensor::Rng rng_;
  std::vector<std::int64_t> tokens_;
};

/// CIFAR10-sub: SynthCifar 8x8 through a MiniResNet with BN (5.3k
/// parameters), batch 32; `seed` draws the image stream as in
/// make_cifar_task(10, seed).
class CifarTask final : public TrainTask {
 public:
  static constexpr std::int64_t kBatch = 32;

  explicit CifarTask(std::uint64_t seed)
      : data_(data_config()), model_(make_model(kInitSeed)), rng_(seed + 1000) {}

  std::vector<yf::autograd::Variable> params() const override { return model_->parameters(); }
  void sample() override { batch_ = data_.sample(kBatch, rng_); }
  yf::autograd::Variable loss() override {
    return yf::autograd::softmax_cross_entropy(
        model_->forward(yf::autograd::Variable(batch_.images)), batch_.labels);
  }

 private:
  static yf::data::SynthCifarConfig data_config() {
    yf::data::SynthCifarConfig cfg;
    cfg.classes = 10;
    cfg.height = 8;
    cfg.width = 8;
    cfg.noise = 0.5;
    cfg.jitter = 0.2;
    cfg.seed = 7;
    return cfg;
  }
  static std::unique_ptr<yf::nn::MiniResNet> make_model(std::uint64_t seed) {
    yf::nn::MiniResNetConfig cfg;
    cfg.base_channels = 4;
    cfg.blocks_per_stage = 1;
    cfg.num_classes = 10;
    yf::tensor::Rng init(seed);
    return std::make_unique<yf::nn::MiniResNet>(cfg, init);
  }

  yf::data::SynthCifar data_;
  std::unique_ptr<yf::nn::MiniResNet> model_;
  yf::tensor::Rng rng_;
  yf::data::ImageBatch batch_;
};

/// make_optimizer("yellowfin", ...) in quick mode: the measurement
/// timescale scaled to the shortened horizon.
inline yf::tuner::YellowFinOptions quick_yellowfin() {
  yf::tuner::YellowFinOptions opts;
  opts.beta = 0.995;
  opts.slow_start_iters = 50;
  return opts;
}

/// Loss of one step with the tracing spans of the traced runs; `log` null
/// records nothing. Mirrors the reproductions' grad_fn statement for
/// statement: sample, loss, backward, read the scalar.
inline double grad_step(TrainTask& task, SpanLog* log) {
  {
    Scope s(log, kDataSample);
    task.sample();
  }
  yf::autograd::Variable loss;
  {
    Scope s(log, kNnForward);
    loss = task.loss();
  }
  {
    Scope s(log, kAutogradBackward);
    loss.backward();
  }
  return loss.value().item();
}

}  // namespace perfbench
