// GraphTape: replay reuse, truncation, and -- the load-bearing claim --
// bit-identical numerics between the tape path and the per-step heap
// graph for full model training (LM with BPTT, conv/batchnorm ResNet),
// including through the training loops, which record on tapes they own.
#include "autograd/tape.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "async/async_simulator.hpp"
#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "data/copy_translate.hpp"
#include "data/markov_text.hpp"
#include "data/synth_cifar.hpp"
#include "nn/language_model.hpp"
#include "nn/resnet.hpp"
#include "nn/seq2seq.hpp"
#include "optim/clipping.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace nn = yf::nn;
namespace t = yf::tensor;

namespace {

ag::Variable leaf(std::vector<double> v, bool rg = true) {
  const auto n = static_cast<std::int64_t>(v.size());
  return ag::Variable(t::Tensor({n}, std::move(v)), rg);
}

/// Fresh-node counts per step from a schedule run: a step records new
/// nodes exactly when its key (graph variant, scalar attribute) differs
/// from the previous step's, and replays every node otherwise.
template <typename Key>
void expect_rerecords_exactly_at_switches(const std::vector<Key>& keys,
                                          const std::vector<std::int64_t>& fresh_per_step) {
  ASSERT_EQ(keys.size(), fresh_per_step.size());
  EXPECT_GT(fresh_per_step[0], 0);
  for (std::size_t s = 1; s < keys.size(); ++s) {
    if (keys[s] != keys[s - 1]) {
      EXPECT_GT(fresh_per_step[s], 0) << "step " << s << " switched but replayed";
    } else {
      EXPECT_EQ(fresh_per_step[s], 0) << "step " << s << " repeated but re-recorded";
    }
  }
}

}  // namespace

TEST(GraphTape, ReplaysCachedNodesWithStableBuffers) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({1, 2, 3});

  tape.begin_step();
  auto y1 = ag::sum(ag::mul(x, x));
  const double* value_addr = y1.value().data().data();
  const auto fresh_after_first = tape.fresh_nodes();
  EXPECT_EQ(fresh_after_first, 2);
  EXPECT_EQ(y1.value().item(), 14.0);

  x.value()[0] = 5.0;
  tape.begin_step();
  auto y2 = ag::sum(ag::mul(x, x));
  EXPECT_EQ(y2.value().item(), 25.0 + 4.0 + 9.0);
  // Same node, same buffer -- nothing was allocated fresh.
  EXPECT_EQ(y2.value().data().data(), value_addr);
  EXPECT_EQ(tape.fresh_nodes(), fresh_after_first);
  EXPECT_EQ(tape.replayed_nodes(), 2);
  EXPECT_EQ(y1.node().get(), y2.node().get());
}

TEST(GraphTape, BackwardMatchesHeapPathBitwise) {
  auto run = [](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({0.5, -1.25, 2.0});
    auto w = leaf({1.5, 0.25, -0.75});
    for (int step = 0; step < 3; ++step) {
      if (tape) tape->begin_step();
      x.zero_grad();
      w.zero_grad();
      auto h = ag::tanh(ag::mul(x, w));
      auto loss = ag::mean(ag::square(ag::add(h, w)));
      loss.backward();
    }
    return std::pair{x.grad().clone(), w.grad().clone()};
  };
  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(heap.first[i], taped.first[i]);
    EXPECT_EQ(heap.second[i], taped.second[i]);
  }
}

TEST(GraphTape, LeafGradsAccumulateAcrossBackwardsLikeHeapPath) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({2.0});
  tape.begin_step();
  auto y = ag::sum(ag::square(x));
  y.backward();
  y.backward();
  EXPECT_EQ(x.grad()[0], 8.0);  // 2 * d(x^2)/dx at 2
}

TEST(GraphTape, StructureChangeTruncatesAndRecovers) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({3.0});

  tape.begin_step();
  auto a = ag::sum(ag::add(x, x));
  a.backward();
  EXPECT_EQ(x.grad()[0], 2.0);

  // Different op at cursor 0: the cached tail is dropped and re-recorded.
  x.zero_grad();
  tape.begin_step();
  auto b = ag::sum(ag::mul(x, x));
  b.backward();
  EXPECT_EQ(b.value().item(), 9.0);
  EXPECT_EQ(x.grad()[0], 6.0);

  // Alternating structures stay correct and the workspace stops growing
  // once both variants have been seen.
  const auto cap = tape.workspace().capacity();
  for (int i = 0; i < 6; ++i) {
    x.zero_grad();
    tape.begin_step();
    if (i % 2 == 0) {
      ag::sum(ag::add(x, x)).backward();
      EXPECT_EQ(x.grad()[0], 2.0);
    } else {
      ag::sum(ag::mul(x, x)).backward();
      EXPECT_EQ(x.grad()[0], 6.0);
    }
  }
  EXPECT_EQ(tape.workspace().capacity(), cap);
}

TEST(GraphTape, StructureChangeScheduleMatchesHeapPath) {
  // Variant schedule: stable on A, one B step that diverges after a shared
  // mul_scalar -> tanh prefix (square -> relu), back to A, then stable on
  // B. Each switch truncates the tail and re-records it; the whole trace
  // must match the per-step heap path bit for bit.
  const std::vector<int> schedule = {0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1};

  std::vector<std::int64_t> fresh_per_step;
  auto run = [&](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({2.0, -3.0, 0.25});
    std::vector<double> trace;
    for (const int variant : schedule) {
      const std::int64_t fresh_before = tape ? tape->fresh_nodes() : 0;
      if (tape) tape->begin_step();
      x.zero_grad();
      auto h = ag::tanh(ag::mul_scalar(x, 0.5));
      auto loss = variant == 0 ? ag::sum(ag::mul_scalar(ag::square(h), 2.0))
                               : ag::sum(ag::mul_scalar(ag::relu(h), 2.0));
      loss.backward();
      trace.push_back(loss.value().item());
      const auto g = x.grad().data();
      trace.insert(trace.end(), g.begin(), g.end());
      if (tape) fresh_per_step.push_back(tape->fresh_nodes() - fresh_before);
    }
    return trace;
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  ASSERT_EQ(heap.size(), taped.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i], taped[i]) << "trace " << i;
  }
  expect_rerecords_exactly_at_switches(schedule, fresh_per_step);
}

TEST(GraphTape, AttrChangeReRecordsWithNewScalar) {
  // The graph's first op is a mul_scalar whose attribute changes mid-run:
  // the replay mismatch truncates there (the whole graph), and the
  // re-recorded node must compute with the *new* scalar, not the stale one.
  const std::vector<double> scales = {1.5, 1.5, 1.5, 1.5, -0.75, -0.75, -0.75, -0.75, -0.75};

  std::vector<std::int64_t> fresh_per_step;
  auto run = [&](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({0.5, -1.25, 2.0});
    std::vector<double> trace;
    for (const double s : scales) {
      const std::int64_t fresh_before = tape ? tape->fresh_nodes() : 0;
      if (tape) tape->begin_step();
      x.zero_grad();
      auto loss = ag::sum(ag::square(ag::tanh(ag::mul_scalar(x, s))));
      loss.backward();
      trace.push_back(loss.value().item());
      const auto g = x.grad().data();
      trace.insert(trace.end(), g.begin(), g.end());
      if (tape) fresh_per_step.push_back(tape->fresh_nodes() - fresh_before);
    }
    return trace;
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  ASSERT_EQ(heap.size(), taped.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap[i], taped[i]) << "trace " << i;
  }
  expect_rerecords_exactly_at_switches(scales, fresh_per_step);
}

TEST(GraphTape, ZerosConstantStaysZeroAcrossSteps) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({1.0, 2.0});
  for (int step = 0; step < 3; ++step) {
    tape.begin_step();
    auto z = ag::zeros({2});
    EXPECT_FALSE(z.requires_grad());
    auto y = ag::sum(ag::add(x, z));
    y.backward();
    EXPECT_EQ(y.value().item(), 3.0);
    EXPECT_EQ(z.value()[0], 0.0);
    EXPECT_EQ(z.value()[1], 0.0);
    x.zero_grad();
  }
}

TEST(GraphTape, BackwardFromIntermediateNode) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({4.0});
  for (int step = 0; step < 2; ++step) {
    x.zero_grad();
    tape.begin_step();
    auto mid = ag::sum(ag::square(x));
    (void)ag::mul_scalar(mid, 10.0);  // recorded after mid, not backpropped
    mid.backward();
    EXPECT_EQ(x.grad()[0], 8.0);
  }
}

// -- Gradcheck on the tape path: every op battery re-verified while the
// -- graph is recorded (step 1) and replayed (every numeric probe).
namespace {

yf::autograd::GradcheckResult tape_gradcheck(
    const std::function<ag::Variable(const std::vector<ag::Variable>&)>& fn,
    std::vector<ag::Variable> inputs) {
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto stepped = [&tape, &fn](const std::vector<ag::Variable>& ins) {
    tape.begin_step();
    return fn(ins);
  };
  return ag::gradcheck(stepped, std::move(inputs));
}

}  // namespace

TEST(GraphTapeGradcheck, ElementwiseChain) {
  auto x = leaf({0.3, -0.7, 1.1, 0.0});
  auto y = leaf({0.9, 0.2, -0.4, 0.6});
  auto result = tape_gradcheck(
      [](const std::vector<ag::Variable>& in) {
        auto h = ag::sigmoid(ag::mul(in[0], in[1]));
        return ag::mean(ag::square(ag::sub(h, in[1])));
      },
      {x, y});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, MatmulBiasSliceConcat) {
  t::Rng rng(3);
  auto a = ag::Variable(rng.normal_tensor({2, 3}), true);
  auto b = ag::Variable(rng.normal_tensor({3, 4}), true);
  auto bias = ag::Variable(rng.normal_tensor({4}), true);
  auto result = tape_gradcheck(
      [](const std::vector<ag::Variable>& in) {
        auto y = ag::add_row_broadcast(ag::matmul(in[0], in[1]), in[2]);
        auto left = ag::slice_cols(y, 0, 2);
        auto right = ag::slice_cols(y, 2, 4);
        auto joined = ag::concat_cols({right, left});
        return ag::mean(ag::mul(joined, joined));
      },
      {a, b, bias});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, ReshapeTransposeSoftmaxXent) {
  t::Rng rng(4);
  auto logits = ag::Variable(rng.normal_tensor({3, 4}), true);
  const std::vector<std::int64_t> labels = {1, 3, 0};
  auto result = tape_gradcheck(
      [labels](const std::vector<ag::Variable>& in) {
        auto wide = ag::reshape(ag::transpose(in[0]), {3, 4});
        return ag::softmax_cross_entropy(wide, labels);
      },
      {logits});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, EmbeddingLookup) {
  t::Rng rng(5);
  auto table = ag::Variable(rng.normal_tensor({5, 3}), true);
  const std::vector<std::int64_t> idx = {4, 0, 4, 2};
  auto result = tape_gradcheck(
      [idx](const std::vector<ag::Variable>& in) {
        return ag::mean(ag::square(ag::embedding(in[0], idx)));
      },
      {table});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(GraphTapeGradcheck, ConvBatchNormPool) {
  t::Rng rng(6);
  auto x = ag::Variable(rng.normal_tensor({2, 2, 4, 4}), true);
  auto w = ag::Variable(rng.normal_tensor({3, 2, 3, 3}, 0.0, 0.5), true);
  auto b = ag::Variable(rng.normal_tensor({3}), true);
  auto gamma = ag::Variable(t::Tensor::ones({3}), true);
  auto beta = ag::Variable(t::Tensor::zeros({3}), true);
  auto result = tape_gradcheck(
      [](const std::vector<ag::Variable>& in) {
        auto y = ag::conv2d(in[0], in[1], in[2], 1, 1);
        y = ag::batch_norm2d(y, in[3], in[4]);
        y = ag::relu(y);
        return ag::mean(ag::square(ag::global_avg_pool(y)));
      },
      {x, w, b, gamma, beta});
  EXPECT_TRUE(result.ok) << result.detail;
}

// -- Whole-model identity: tape trajectory == heap trajectory, bitwise. ----

TEST(GraphTapeModels, LmTrainingTrajectoryIsBitIdenticalToHeapPath) {
  const std::int64_t batch = 4, seq_plus1 = 7, steps = 6;
  yf::data::MarkovTextConfig dcfg;
  dcfg.vocab = 12;
  dcfg.branching = 2;
  yf::data::MarkovText dataset(dcfg);
  t::Rng data_rng(11);
  std::vector<std::vector<std::int64_t>> batches;
  for (std::int64_t s = 0; s < steps; ++s) {
    batches.push_back(dataset.sample_batch(batch, seq_plus1, data_rng));
  }

  auto run = [&](ag::GraphTape* tape) {
    nn::LanguageModelConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 6;
    cfg.hidden = 8;
    cfg.layers = 2;
    t::Rng model_rng(1);
    nn::LSTMLanguageModel model(cfg, model_rng);
    yf::tuner::YellowFin opt(model.parameters());
    ag::TapeScope scope(tape);
    std::vector<double> losses;
    for (std::int64_t s = 0; s < steps; ++s) {
      if (tape) tape->begin_step();
      opt.zero_grad();
      auto loss = model.loss(batches[static_cast<std::size_t>(s)], batch, seq_plus1);
      loss.backward();
      opt.step();
      losses.push_back(loss.value().item());
    }
    auto final_params = yf::nn::flatten_values(opt.params());
    return std::pair{losses, final_params};
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  for (std::int64_t s = 0; s < steps; ++s) {
    EXPECT_EQ(heap.first[static_cast<std::size_t>(s)], taped.first[static_cast<std::size_t>(s)])
        << "loss diverged at step " << s;
  }
  ASSERT_EQ(heap.second.size(), taped.second.size());
  for (std::int64_t i = 0; i < heap.second.size(); ++i) {
    EXPECT_EQ(heap.second[i], taped.second[i]) << "parameter " << i;
  }
  // The whole run replayed from the warm-up recording.
  EXPECT_EQ(tape.steps(), steps);
  EXPECT_GT(tape.replayed_nodes(), 0);
}

TEST(GraphTapeModels, ResNetTrainingTrajectoryIsBitIdenticalToHeapPath) {
  const std::int64_t steps = 3;
  yf::data::SynthCifarConfig dcfg;
  dcfg.classes = 3;
  dcfg.height = 8;
  dcfg.width = 8;
  yf::data::SynthCifar dataset(dcfg);
  t::Rng data_rng(21);
  std::vector<yf::data::ImageBatch> batches;
  for (std::int64_t s = 0; s < steps; ++s) batches.push_back(dataset.sample(4, data_rng));

  auto run = [&](ag::GraphTape* tape) {
    nn::MiniResNetConfig cfg;
    cfg.base_channels = 4;
    cfg.blocks_per_stage = 1;
    cfg.num_classes = 3;
    cfg.with_batchnorm = true;
    t::Rng model_rng(2);
    nn::MiniResNet model(cfg, model_rng);
    yf::optim::MomentumSGD opt(model.parameters(), 0.05, 0.9);
    ag::TapeScope scope(tape);
    // One persistent input leaf: its buffer is refilled per step, the way
    // a zero-allocation input pipeline feeds the tape.
    ag::Variable images(batches[0].images.clone());
    std::vector<double> losses;
    for (std::int64_t s = 0; s < steps; ++s) {
      if (tape) tape->begin_step();
      const auto& b = batches[static_cast<std::size_t>(s)];
      t::copy_into(images.value(), b.images);
      opt.zero_grad();
      auto loss = ag::softmax_cross_entropy(model.forward(images), b.labels);
      loss.backward();
      opt.step();
      losses.push_back(loss.value().item());
    }
    return std::pair{losses, yf::nn::flatten_values(opt.params())};
  };

  const auto heap = run(nullptr);
  ag::GraphTape tape;
  const auto taped = run(&tape);
  for (std::int64_t s = 0; s < steps; ++s) {
    EXPECT_EQ(heap.first[static_cast<std::size_t>(s)], taped.first[static_cast<std::size_t>(s)]);
  }
  for (std::int64_t i = 0; i < heap.second.size(); ++i) {
    EXPECT_EQ(heap.second[i], taped.second[i]) << "parameter " << i;
  }
}

// ---------------------------------------------------------------------------
// Training loops own their tapes: train() records every grad_fn and val_fn
// call on a tape of its own, AsyncTrainer on a member tape, and each must
// step exactly the trajectory a hand-written eager loop steps on the
// per-step heap graph.
// ---------------------------------------------------------------------------

namespace {

/// train()'s statement sequence with no tape installed: the eager
/// reference the recorded run is pinned against.
yf::train::TrainResult eager_train(yf::optim::Optimizer& opt, const yf::train::GradFn& grad_fn,
                                   const yf::train::TrainOptions& opts) {
  EXPECT_EQ(ag::active_tape(), nullptr);
  auto& params = const_cast<std::vector<ag::Variable>&>(opt.params());
  yf::train::TrainResult r;
  for (std::int64_t it = 0; it < opts.iterations; ++it) {
    opt.zero_grad();
    const double loss = grad_fn();
    if (opts.clip_norm) yf::optim::clip_grad_norm(params, *opts.clip_norm);
    opt.step();
    r.losses.push_back(loss);
    if (opts.val_fn && (it + 1) % opts.val_every == 0) {
      r.val_values.push_back(opts.val_fn());
      r.val_iterations.push_back(it + 1);
    }
  }
  return r;
}

void expect_same_run(const yf::train::TrainResult& eager, const yf::train::TrainResult& taped) {
  EXPECT_FALSE(taped.diverged);
  ASSERT_EQ(eager.losses.size(), taped.losses.size());
  for (std::size_t i = 0; i < eager.losses.size(); ++i) {
    EXPECT_EQ(eager.losses[i], taped.losses[i]) << "loss diverged at step " << i;
  }
  ASSERT_EQ(eager.val_values.size(), taped.val_values.size());
  ASSERT_FALSE(eager.val_values.empty());
  for (std::size_t i = 0; i < eager.val_values.size(); ++i) {
    EXPECT_EQ(eager.val_iterations[i], taped.val_iterations[i]);
    EXPECT_EQ(eager.val_values[i], taped.val_values[i]) << "val probe " << i;
  }
}

}  // namespace

TEST(GraphTapeTrainingLoops, TrainLmWithValidationMatchesEagerLoop) {
  // table2's TS-sub char LM with quick-mode YellowFin. Every 7th step the
  // val probe records a forward-only loss graph after the step's own.
  const std::int64_t batch = 6, seq_plus1 = 13;
  auto run = [&](bool eager) {
    yf::data::MarkovTextConfig dcfg;
    dcfg.vocab = 33;
    dcfg.branching = 3;
    dcfg.seed = 13;
    auto dataset = std::make_shared<yf::data::MarkovText>(dcfg);
    nn::LanguageModelConfig cfg;
    cfg.vocab = 33;
    cfg.embed_dim = 12;
    cfg.hidden = 16;
    cfg.layers = 2;
    t::Rng model_rng(1);
    auto model = std::make_shared<nn::LSTMLanguageModel>(cfg, model_rng);
    yf::tuner::YellowFinOptions yopts;
    yopts.beta = 0.995;
    yopts.slow_start_iters = 50;
    yf::tuner::YellowFin opt(model->parameters(), yopts);
    auto rng = std::make_shared<t::Rng>(2001);
    const yf::train::GradFn grad_fn = [=] {
      const auto tokens = dataset->sample_batch(batch, seq_plus1, *rng);
      auto loss = model->loss(tokens, batch, seq_plus1);
      loss.backward();
      return loss.value().item();
    };
    yf::train::TrainOptions opts;
    opts.iterations = 30;
    opts.val_every = 7;
    opts.val_fn = [=] {
      t::Rng val_rng(31337);  // the same held-out batch every call
      return model->loss(dataset->sample_batch(batch, seq_plus1, val_rng), batch, seq_plus1)
          .value()
          .item();
    };
    return eager ? eager_train(opt, grad_fn, opts) : yf::train::train(opt, grad_fn, opts);
  };
  expect_same_run(run(true), run(false));
}

TEST(GraphTapeTrainingLoops, TrainResNetWithWiderValBatchMatchesEagerLoop) {
  // MiniResNet+BN trained at batch 32 through a persistent input leaf, so
  // its graph replays; the val probe runs a new batch of 64 through a
  // fresh leaf, so a second graph shape sits after the training graph on
  // the same tape and is re-recorded on every probe.
  const std::int64_t batch = 32;
  auto run = [&](bool eager) {
    yf::data::SynthCifarConfig dcfg;
    dcfg.classes = 10;
    dcfg.height = 8;
    dcfg.width = 8;
    dcfg.noise = 0.5;
    dcfg.jitter = 0.2;
    dcfg.seed = 7;
    auto dataset = std::make_shared<yf::data::SynthCifar>(dcfg);
    nn::MiniResNetConfig cfg;
    cfg.base_channels = 4;
    cfg.blocks_per_stage = 1;
    cfg.num_classes = 10;
    t::Rng model_rng(1);
    auto model = std::make_shared<nn::MiniResNet>(cfg, model_rng);
    yf::tuner::YellowFin opt(model->parameters());
    auto rng = std::make_shared<t::Rng>(1001);
    ag::Variable images(t::Tensor(t::Shape{batch, 3, 8, 8}));
    const yf::train::GradFn grad_fn = [=]() mutable {
      const auto b = dataset->sample(batch, *rng);
      t::copy_into(images.value(), b.images);
      auto loss = ag::softmax_cross_entropy(model->forward(images), b.labels);
      loss.backward();
      return loss.value().item();
    };
    yf::train::TrainOptions opts;
    opts.iterations = 12;
    opts.val_every = 5;
    auto val_rng = std::make_shared<t::Rng>(77);
    opts.val_fn = [=] {
      const auto b = dataset->sample(64, *val_rng);
      return ag::softmax_cross_entropy(model->forward(ag::Variable(b.images)), b.labels)
          .value()
          .item();
    };
    return eager ? eager_train(opt, grad_fn, opts) : yf::train::train(opt, grad_fn, opts);
  };
  expect_same_run(run(true), run(false));
}

TEST(GraphTapeTrainingLoops, TrainSeq2SeqWithSpikesTruncatesAndMatchesEagerLoop) {
  // Table 1's seq2seq with injected loss spikes and manual clipping: a
  // spiked step records one more node (the scaled loss) at the cursor
  // where the val probe records its graph, so each spike after a probe,
  // and each probe after a spike, truncates the tape's tail.
  auto run = [&](bool eager, std::vector<bool>* spikes) {
    yf::data::CopyTranslateConfig dcfg;
    dcfg.vocab = 12;
    dcfg.src_len = 6;
    dcfg.seed = 23;
    auto dataset = std::make_shared<yf::data::CopyTranslate>(dcfg);
    nn::Seq2SeqConfig cfg;
    cfg.src_vocab = dataset->src_vocab();
    cfg.tgt_vocab = dataset->tgt_vocab();
    cfg.embed_dim = 10;
    cfg.hidden = 16;
    cfg.layers = 1;
    t::Rng model_rng(1);
    auto model = std::make_shared<nn::Seq2Seq>(cfg, model_rng);
    yf::optim::MomentumSGD opt(model->parameters(), 0.1, 0.9);
    auto rng = std::make_shared<t::Rng>(4001);
    const yf::train::GradFn grad_fn = [=] {
      const auto b = dataset->sample(6, *rng);
      auto loss = model->loss(b.src, b.src_len, b.tgt, b.tgt_len_plus1, b.batch);
      const bool spike = rng->bernoulli(0.3);
      if (spike) loss = ag::mul_scalar(loss, 20.0);
      if (spikes) spikes->push_back(spike);
      loss.backward();
      return loss.value().item();
    };
    yf::train::TrainOptions opts;
    opts.iterations = 16;
    opts.clip_norm = 1.0;
    opts.val_every = 4;
    opts.val_fn = [=] {
      t::Rng val_rng(515151);
      const auto b = dataset->sample(16, val_rng);
      return model->loss(b.src, b.src_len, b.tgt, b.tgt_len_plus1, b.batch).value().item();
    };
    return eager ? eager_train(opt, grad_fn, opts) : yf::train::train(opt, grad_fn, opts);
  };
  std::vector<bool> spikes;
  const auto eager = run(true, &spikes);
  // Some step between the first and the last probe spikes, so the tape
  // sees probe, spike, probe at one cursor position: two truncations.
  ASSERT_EQ(spikes.size(), 16u);
  EXPECT_NE(std::find(spikes.begin() + 4, spikes.begin() + 12, true), spikes.begin() + 12);
  expect_same_run(eager, run(false, nullptr));
}

TEST(GraphTapeTrainingLoops, AsyncTrainerMatchesEagerDelayedLoop) {
  // AsyncTrainer records each gradient closure on the tape it owns; an
  // eager loop that applies the gradient from `staleness` steps back must
  // step the same trajectory.
  const std::int64_t batch = 4, seq_plus1 = 7, steps = 12, staleness = 3;
  auto run = [&](bool eager) {
    yf::data::MarkovTextConfig dcfg;
    dcfg.vocab = 12;
    dcfg.branching = 2;
    auto dataset = std::make_shared<yf::data::MarkovText>(dcfg);
    nn::LanguageModelConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 6;
    cfg.hidden = 8;
    cfg.layers = 2;
    t::Rng model_rng(1);
    auto model = std::make_shared<nn::LSTMLanguageModel>(cfg, model_rng);
    auto opt = std::make_shared<yf::tuner::YellowFin>(model->parameters());
    auto rng = std::make_shared<t::Rng>(17);
    const yf::async::GradFn grad_fn = [=] {
      auto loss = model->loss(dataset->sample_batch(batch, seq_plus1, *rng), batch, seq_plus1);
      loss.backward();
      return loss.value().item();
    };
    std::vector<double> losses;
    if (eager) {
      auto& params = const_cast<std::vector<ag::Variable>&>(opt->params());
      std::deque<t::Tensor> queue;
      for (std::int64_t s = 0; s < steps; ++s) {
        opt->zero_grad();
        losses.push_back(grad_fn());
        queue.push_back(nn::flatten_grads(params));
        if (static_cast<std::int64_t>(queue.size()) <= staleness) continue;
        const auto delayed = queue.front().data();
        std::size_t off = 0;
        for (auto& p : params) {
          auto g = p.node()->ensure_grad().data();
          std::copy_n(delayed.begin() + static_cast<std::ptrdiff_t>(off), g.size(), g.begin());
          off += g.size();
        }
        queue.pop_front();
        opt->step();
      }
    } else {
      yf::async::AsyncTrainerOptions aopts;
      aopts.staleness = staleness;
      yf::async::AsyncTrainer trainer(opt, grad_fn, aopts);
      for (std::int64_t s = 0; s < steps; ++s) losses.push_back(trainer.step().loss);
    }
    return std::pair{losses, nn::flatten_values(opt->params())};
  };
  const auto eager = run(true);
  const auto taped = run(false);
  for (std::int64_t s = 0; s < steps; ++s) {
    EXPECT_EQ(eager.first[static_cast<std::size_t>(s)], taped.first[static_cast<std::size_t>(s)])
        << "loss diverged at step " << s;
  }
  ASSERT_EQ(eager.second.size(), taped.second.size());
  for (std::int64_t i = 0; i < eager.second.size(); ++i) {
    EXPECT_EQ(eager.second[i], taped.second[i]) << "parameter " << i;
  }
}
