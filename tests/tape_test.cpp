// GraphTape: replay reuse, truncation, and -- the load-bearing claim --
// bit-identical numerics between the tape path and the per-step heap
// graph for full model training (LM with BPTT, conv/batchnorm ResNet),
// including through the training loops, which record on tapes they own.
#include "autograd/tape.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <tuple>
#include <utility>

#include "async/async_simulator.hpp"
#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "core/env.hpp"
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

/// Forces the process-wide tape-fusion toggle for one scope and restores
/// it on exit, so tests stay order-independent and the YF_TAPE_FUSION
/// ctest variants (`*_fused_off`) keep their environment meaning.
struct FusionGuard {
  bool prev;
  explicit FusionGuard(bool on) : prev(ag::tape_fusion_enabled()) { ag::set_tape_fusion(on); }
  ~FusionGuard() { ag::set_tape_fusion(prev); }
};

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
        y = ag::avg_pool2x2(ag::relu(y));
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
// Tape fusion (DESIGN.md §13): elementwise chains collapse into single
// fused sweeps at the end of warm-up. The contract under test is
// threefold: trajectories are EXPECT_EQ-bit-identical fused vs unfused
// (both model families -- the ctest backend matrix re-runs this file per
// kernel table), intermediates genuinely
// leave the workspace, and instability (structure/attr changes, interior
// reads) degrades to the unfused path instead of to wrong gradients.
// ---------------------------------------------------------------------------

TEST(GraphTapeFusion, ElementwiseChainCollapsesAndDropsIntermediates) {
  auto run = [](bool fused) {
    FusionGuard guard(fused);
    ag::GraphTape tape;
    ag::TapeScope scope(&tape);
    auto x = leaf({0.5, -1.25, 2.0, 0.75});
    std::vector<double> trace;
    for (int step = 0; step < 8; ++step) {
      tape.begin_step();
      x.zero_grad();
      auto y = ag::sum(ag::square(ag::tanh(ag::mul_scalar(x, 1.5))));
      y.backward();
      trace.push_back(y.value().item());
      const auto g = x.grad().data();
      trace.insert(trace.end(), g.begin(), g.end());
    }
    return std::tuple{trace, tape.fused_nodes(), tape.fusion_chains(),
                      tape.eliminated_intermediate_bytes(),
                      tape.workspace().high_water_bytes()};
  };

  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(std::get<0>(off).size(), std::get<0>(on).size());
  for (std::size_t i = 0; i < std::get<0>(off).size(); ++i) {
    EXPECT_EQ(std::get<0>(off)[i], std::get<0>(on)[i]) << "trace " << i;
  }
  // mul_scalar -> tanh is one 2-member chain (tanh is a transcendental,
  // so it may only ever be a chain *tail* -- square stays unfused after
  // it); the interior mul_scalar value+grad buffers leave the workspace.
  EXPECT_EQ(std::get<1>(off), 0);
  EXPECT_EQ(std::get<1>(on), 2);
  EXPECT_EQ(std::get<2>(on), 1);
  EXPECT_EQ(std::get<3>(on), 2 * 4 * static_cast<std::int64_t>(sizeof(double)));
  EXPECT_LT(std::get<4>(on), std::get<4>(off))
      << "fused workspace peak must shrink by the eliminated intermediates";
}

TEST(GraphTapeFusion, LmYellowFinTrajectoryMatchesUnfused) {
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

  auto run = [&](bool fused, std::int64_t* fused_nodes_out) {
    FusionGuard guard(fused);
    nn::LanguageModelConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 6;
    cfg.hidden = 8;
    cfg.layers = 2;
    t::Rng model_rng(1);
    nn::LSTMLanguageModel model(cfg, model_rng);
    yf::tuner::YellowFin opt(model.parameters());
    ag::GraphTape tape;
    ag::TapeScope scope(&tape);
    std::vector<double> losses;
    for (std::int64_t s = 0; s < steps; ++s) {
      tape.begin_step();
      opt.zero_grad();
      auto loss = model.loss(batches[static_cast<std::size_t>(s)], batch, seq_plus1);
      loss.backward();
      opt.step();
      losses.push_back(loss.value().item());
    }
    if (fused_nodes_out != nullptr) *fused_nodes_out = tape.fused_nodes();
    return std::pair{losses, yf::nn::flatten_values(opt.params())};
  };

  const auto unfused = run(false, nullptr);
  std::int64_t fused_nodes = 0;
  const auto fused = run(true, &fused_nodes);
  // The LSTM cell is elementwise-dense (gate activations, cell update):
  // fusion must actually engage, or this test proves nothing.
  EXPECT_GT(fused_nodes, 0) << "fusion never fired";
  for (std::int64_t s = 0; s < steps; ++s) {
    EXPECT_EQ(unfused.first[static_cast<std::size_t>(s)],
              fused.first[static_cast<std::size_t>(s)])
        << "loss diverged at step " << s;
  }
  ASSERT_EQ(unfused.second.size(), fused.second.size());
  for (std::int64_t i = 0; i < unfused.second.size(); ++i) {
    EXPECT_EQ(unfused.second[i], fused.second[i]) << "parameter " << i;
  }
}

TEST(GraphTapeFusion, ResNetBatchNormTrajectoryMatchesUnfused) {
  const std::int64_t steps = 3;
  yf::data::SynthCifarConfig dcfg;
  dcfg.classes = 3;
  dcfg.height = 8;
  dcfg.width = 8;
  yf::data::SynthCifar dataset(dcfg);
  t::Rng data_rng(21);
  std::vector<yf::data::ImageBatch> batches;
  for (std::int64_t s = 0; s < steps; ++s) batches.push_back(dataset.sample(4, data_rng));

  auto run = [&](bool fused) {
    FusionGuard guard(fused);
    nn::MiniResNetConfig cfg;
    cfg.base_channels = 4;
    cfg.blocks_per_stage = 1;
    cfg.num_classes = 3;
    cfg.with_batchnorm = true;
    t::Rng model_rng(2);
    nn::MiniResNet model(cfg, model_rng);
    yf::optim::MomentumSGD opt(model.parameters(), 0.05, 0.9);
    ag::GraphTape tape;
    ag::TapeScope scope(&tape);
    ag::Variable images(batches[0].images.clone());
    std::vector<double> losses;
    for (std::int64_t s = 0; s < steps; ++s) {
      tape.begin_step();
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

  const auto unfused = run(false);
  const auto fused = run(true);
  for (std::int64_t s = 0; s < steps; ++s) {
    EXPECT_EQ(unfused.first[static_cast<std::size_t>(s)],
              fused.first[static_cast<std::size_t>(s)])
        << "loss diverged at step " << s;
  }
  ASSERT_EQ(unfused.second.size(), fused.second.size());
  for (std::int64_t i = 0; i < unfused.second.size(); ++i) {
    EXPECT_EQ(unfused.second[i], fused.second[i]) << "parameter " << i;
  }
}

TEST(GraphTapeFusion, StructureChangeTruncatesFusedPlanAndRefusesAfterWarmup) {
  FusionGuard guard(true);
  // Variant schedule: stable on A long enough to fuse, one B step that
  // diverges *inside* a fused chain (square -> relu at the head of the
  // second chain), then stable on B long enough to re-fuse. The whole
  // trace must match the per-step heap path bit for bit.
  const std::vector<int> schedule = {0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1};

  auto run = [&](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({2.0, -3.0, 0.25});
    std::vector<double> trace;
    for (const int variant : schedule) {
      if (tape) tape->begin_step();
      x.zero_grad();
      auto h = ag::tanh(ag::mul_scalar(x, 0.5));
      auto loss = variant == 0 ? ag::sum(ag::mul_scalar(ag::square(h), 2.0))
                               : ag::sum(ag::mul_scalar(ag::relu(h), 2.0));
      loss.backward();
      trace.push_back(loss.value().item());
      const auto g = x.grad().data();
      trace.insert(trace.end(), g.begin(), g.end());
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
  // The pass fired at least twice: once on the initial A recording and
  // again after the final B run stabilized (counters stay consistent
  // through the truncations in between).
  EXPECT_GE(tape.fusion_rebuilds(), 2);
  EXPECT_GT(tape.fused_nodes(), 0);
  EXPECT_GT(tape.fusion_chains(), 0);
  EXPECT_GT(tape.eliminated_intermediate_bytes(), 0);
}

TEST(GraphTapeFusion, AttrChangeInsideChainRefusesWithNewScalar) {
  FusionGuard guard(true);
  // The chain *head* is a mul_scalar whose attr changes mid-run: the
  // replay mismatch truncates at the head (the whole chain), and the
  // re-fused program must bake in the *new* scalar, not the stale one.
  const std::vector<double> scales = {1.5, 1.5, 1.5, 1.5, -0.75, -0.75, -0.75, -0.75, -0.75};

  auto run = [&](ag::GraphTape* tape) {
    ag::TapeScope scope(tape);
    auto x = leaf({0.5, -1.25, 2.0});
    std::vector<double> trace;
    for (const double s : scales) {
      if (tape) tape->begin_step();
      x.zero_grad();
      auto loss = ag::sum(ag::square(ag::tanh(ag::mul_scalar(x, s))));
      loss.backward();
      trace.push_back(loss.value().item());
      const auto g = x.grad().data();
      trace.insert(trace.end(), g.begin(), g.end());
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
  EXPECT_GE(tape.fusion_rebuilds(), 2);
  EXPECT_EQ(tape.fused_nodes(), 2);
}

TEST(GraphTapeFusion, InteriorValueReadMaterializesAndDissolvesChain) {
  FusionGuard guard(true);
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  auto x = leaf({0.5, -0.25, 1.5});
  ag::Variable m;
  auto step = [&] {
    tape.begin_step();
    x.zero_grad();
    m = ag::mul_scalar(x, 2.0);
    auto loss = ag::sum(ag::square(ag::tanh(m)));
    loss.backward();
    return std::pair{loss.value().item(), x.grad().clone()};
  };
  for (int i = 0; i < 4; ++i) step();
  ASSERT_EQ(tape.fused_nodes(), 2);  // mul_scalar -> tanh

  // Reading the chain-interior handle materializes its buffer with the
  // exact per-element value the unfused op would have produced, and
  // dissolves the chain (a foreign observer exists now).
  const auto& mv = m.value();
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(mv[i], 2.0 * x.value()[i]) << "element " << i;
  }
  EXPECT_EQ(tape.fused_nodes(), 0);

  // Later steps replay unfused and stay numerically on the same
  // trajectory as a fusion-off tape.
  const auto after = step();
  FusionGuard off(false);
  ag::GraphTape ref_tape;
  ag::TapeScope ref_scope(&ref_tape);
  auto xr = leaf({0.5, -0.25, 1.5});
  double ref_loss = 0.0;
  t::Tensor ref_grad;
  for (int i = 0; i < 5; ++i) {
    ref_tape.begin_step();
    xr.zero_grad();
    auto loss = ag::sum(ag::square(ag::tanh(ag::mul_scalar(xr, 2.0))));
    loss.backward();
    ref_loss = loss.value().item();
    ref_grad = xr.grad().clone();
  }
  EXPECT_EQ(after.first, ref_loss);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_EQ(after.second[i], ref_grad[i]);
}

TEST(GraphTapeFusion, FusionKnobAcceptsOnlyBooleanSpellings) {
  // YF_TAPE_FUSION goes through the strict boolean parse: a typo warns and
  // keeps the default instead of silently reading as "on".
  const char* saved = ::getenv("YF_TAPE_FUSION");
  const std::string saved_copy = saved ? saved : "";
  for (const char* on : {"on", "1", "true"}) {
    ::setenv("YF_TAPE_FUSION", on, 1);
    EXPECT_TRUE(yf::core::checked_env_bool("YF_TAPE_FUSION", false)) << on;
  }
  for (const char* off : {"off", "0", "false"}) {
    ::setenv("YF_TAPE_FUSION", off, 1);
    EXPECT_FALSE(yf::core::checked_env_bool("YF_TAPE_FUSION", true)) << off;
  }
  for (const char* typo : {"OFF", "no", "bogus"}) {  // warn, keep the default
    ::setenv("YF_TAPE_FUSION", typo, 1);
    EXPECT_TRUE(yf::core::checked_env_bool("YF_TAPE_FUSION", true)) << typo;
    EXPECT_FALSE(yf::core::checked_env_bool("YF_TAPE_FUSION", false)) << typo;
  }
  ::unsetenv("YF_TAPE_FUSION");
  EXPECT_TRUE(yf::core::checked_env_bool("YF_TAPE_FUSION", true));
  EXPECT_FALSE(yf::core::checked_env_bool("YF_TAPE_FUSION", false));
  if (saved) ::setenv("YF_TAPE_FUSION", saved_copy.c_str(), 1);
}

TEST(GraphTapeGradcheck, ElementwiseChainWithFusionForcedOn) {
  // Same battery as ElementwiseChain, but pinned fused even under the
  // YF_TAPE_FUSION=off ctest variants: gradcheck's probe replays run
  // against the fused sweeps once the tape stabilizes mid-battery.
  FusionGuard guard(true);
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
