#include <gtest/gtest.h>

#include "tensor/ops.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "autograd/ops.hpp"
#include "core/kernels/kernel_table.hpp"
#include "data/synth_cifar.hpp"
#include "nn/language_model.hpp"
#include "nn/resnet.hpp"
#include "nn/seq2seq.hpp"
#include "train/trainer.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace nn = yf::nn;
namespace t = yf::tensor;

TEST(MiniResNet, LogitShape) {
  t::Rng rng(1);
  nn::MiniResNetConfig cfg;
  cfg.base_channels = 4;
  cfg.blocks_per_stage = 1;
  cfg.num_classes = 7;
  nn::MiniResNet net(cfg, rng);
  auto x = ag::Variable(rng.normal_tensor({2, 3, 16, 16}));
  EXPECT_EQ(net.forward(x).value().shape(), (t::Shape{2, 7}));
}

TEST(MiniResNet, DepthAndChannelGrowth) {
  t::Rng rng(2);
  nn::MiniResNetConfig cfg;
  cfg.base_channels = 4;
  cfg.blocks_per_stage = 2;
  nn::MiniResNet net(cfg, rng);
  // 3 stages x 2 blocks, channel doubling twice => head input 16 channels.
  // Parameter count sanity: stem + 6 blocks + head.
  EXPECT_GT(net.parameter_count(), 1000);
}

TEST(MiniResNet, BackwardProducesFiniteGrads) {
  t::Rng rng(3);
  nn::MiniResNetConfig cfg;
  cfg.base_channels = 4;
  cfg.blocks_per_stage = 1;
  nn::MiniResNet net(cfg, rng);
  auto x = ag::Variable(rng.normal_tensor({2, 3, 8, 8}));
  auto loss = ag::softmax_cross_entropy(net.forward(x), {0, 1});
  loss.backward();
  for (const auto& p : net.parameters()) {
    for (double g : p.grad().data()) EXPECT_TRUE(std::isfinite(g));
  }
}

TEST(ResidualBlock, IdentityPathPreservedAtZeroBranch) {
  t::Rng rng(4);
  nn::ResidualBlock block(4, 4, /*downsample=*/false, rng, /*residual_scale=*/0.0,
                          /*with_batchnorm=*/false);
  auto positive = rng.normal_tensor({1, 4, 4, 4});
  for (double& v : positive.data()) v = std::abs(v);  // positive => ReLU no-op
  auto x = ag::Variable(std::move(positive));
  auto y = block.forward(x);
  EXPECT_TRUE(t::allclose(y.value(), x.value(), 1e-12, 1e-12));
}

TEST(ResidualBlock, DownsampleHalvesSpatial) {
  t::Rng rng(5);
  nn::ResidualBlock block(4, 8, /*downsample=*/true, rng);
  auto x = ag::Variable(rng.normal_tensor({2, 4, 8, 8}));
  EXPECT_EQ(block.forward(x).value().shape(), (t::Shape{2, 8, 4, 4}));
}

// -- Golden CNN trajectory. ---------------------------------------------------

namespace {

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

}  // namespace

// table2's CIFAR10-sub task at seed 1, as make_cifar_task(10, 1) builds it
// (SynthCifar 8x8 with 10 classes and task seed 7, MiniResNet with base 4
// and one block per stage, batch 32), under quick-mode YellowFin (beta
// 0.995, slow start 50): the losses of its first 40 steps through
// train::train(), recorded as exact doubles. It runs under every kernel
// table the CPU can run, so the conv, batch-norm and pooling numerics stay
// pinned on each. The values assume glibc's double libm (recorded with
// gcc 12 and glibc 2.36): std::log in the loss, std::sqrt in batch norm
// and the libm calls in the tuner, data and init feed them. If this fails
// on another libm, re-record the values at the parent commit there; do not
// edit them to match a change.
TEST(MiniResNet, Cifar10SubTrajectoryMatchesGolden) {
  static constexpr double kGolden[40] = {
      0x1.2f7309abcc3d6p+1, 0x1.2dbe197a8e47dp+1, 0x1.3ecc316ef1d14p+1, 0x1.38efcea93ce31p+1,
      0x1.3a65cb6b65ebcp+1, 0x1.4559809e3cac7p+1, 0x1.225184f5f17c5p+1, 0x1.2ac2c0687b891p+1,
      0x1.1ca2772553911p+1, 0x1.3ec424aa5e651p+1, 0x1.1b74c01d888p+1, 0x1.306519484d50cp+1,
      0x1.1fe0bb65aebb2p+1, 0x1.2395b418afabap+1, 0x1.22537d0c05b63p+1, 0x1.27c6d4c131767p+1,
      0x1.15ed26a56d1b1p+1, 0x1.1504a32c0a93p+1, 0x1.0e16491c79f85p+1, 0x1.156abd3679edfp+1,
      0x1.0775a38eb0ec8p+1, 0x1.104b1edd1ad93p+1, 0x1.004e8b76a0fedp+1, 0x1.11489572e2897p+1,
      0x1.12d60552eaa51p+1, 0x1.ebca96abfbe31p+0, 0x1.f1d2e479fd5f3p+0, 0x1.022e2aab97df2p+1,
      0x1.f83d8c5a1149dp+0, 0x1.f53e02d5e171bp+0, 0x1.ee4c9ba8a70fap+0, 0x1.b279170a137d1p+0,
      0x1.c5932d36d1352p+0, 0x1.bc49cca19213fp+0, 0x1.b778bd44dbe76p+0, 0x1.d69f47da3fdf8p+0,
      0x1.b9f466c5c5b05p+0, 0x1.bffe46291a4d3p+0, 0x1.b0aba6579e26ep+0, 0x1.90ba16745c38bp+0,
  };
  for (const auto& table : yf::core::detail::runnable_tables()) {
    SCOPED_TRACE(table.name);
    const yf::core::detail::ActiveTableScope scope(*table.table);
    yf::data::SynthCifarConfig dcfg;
    dcfg.classes = 10;
    dcfg.height = 8;
    dcfg.width = 8;
    dcfg.noise = 0.5;
    dcfg.jitter = 0.2;
    dcfg.seed = 7;
    yf::data::SynthCifar data(dcfg);
    nn::MiniResNetConfig cfg;
    cfg.base_channels = 4;
    cfg.blocks_per_stage = 1;
    cfg.num_classes = 10;
    t::Rng init(1);
    nn::MiniResNet model(cfg, init);
    yf::tuner::YellowFinOptions yopts;
    yopts.beta = 0.995;
    yopts.slow_start_iters = 50;
    yf::tuner::YellowFin opt(model.parameters(), yopts);
    t::Rng data_rng(1001);
    const yf::train::GradFn grad_fn = [&] {
      const auto b = data.sample(32, data_rng);
      auto loss = ag::softmax_cross_entropy(model.forward(ag::Variable(b.images)), b.labels);
      loss.backward();
      return loss.value().item();
    };
    yf::train::TrainOptions topts;
    topts.iterations = 40;
    topts.divergence_bound = 1e4;
    const auto res = yf::train::train(opt, grad_fn, topts);
    ASSERT_FALSE(res.diverged);
    ASSERT_EQ(res.losses.size(), 40u);
    for (std::size_t i = 0; i < 40; ++i) {
      EXPECT_TRUE(same_bits(res.losses[i], kGolden[i]))
          << "step " << i + 1 << ": got " << hex(res.losses[i]) << ", golden " << hex(kGolden[i]);
    }
  }
}

TEST(LanguageModel, LogitShape) {
  t::Rng rng(6);
  nn::LanguageModelConfig cfg;
  cfg.vocab = 11;
  cfg.embed_dim = 4;
  cfg.hidden = 5;
  cfg.layers = 2;
  nn::LSTMLanguageModel lm(cfg, rng);
  std::vector<std::int64_t> tokens(2 * 3, 1);
  EXPECT_EQ(lm.logits(tokens, 2, 3).value().shape(), (t::Shape{6, 11}));
}

TEST(LanguageModel, LossIsLogVocabAtInit) {
  t::Rng rng(7);
  nn::LanguageModelConfig cfg;
  cfg.vocab = 17;
  cfg.embed_dim = 4;
  cfg.hidden = 4;
  cfg.layers = 1;
  nn::LSTMLanguageModel lm(cfg, rng);
  std::vector<std::int64_t> tokens(4 * 6);
  t::Rng data_rng(8);
  for (auto& tok : tokens) tok = data_rng.index(17);
  const double loss = lm.loss(tokens, 4, 6).value().item();
  // Untrained LM should be near the uniform baseline log(17) ~ 2.83.
  EXPECT_NEAR(loss, std::log(17.0), 0.4);
}

TEST(LanguageModel, RowOrderingMatchesBTIndexing) {
  // logits row r = b*T + t must correspond to token (b, t): check by making
  // the embedding for one token huge and seeing which rows move.
  t::Rng rng(9);
  nn::LanguageModelConfig cfg;
  cfg.vocab = 5;
  cfg.embed_dim = 3;
  cfg.hidden = 3;
  cfg.layers = 1;
  nn::LSTMLanguageModel lm(cfg, rng);
  const std::int64_t batch = 2, seq = 3;
  std::vector<std::int64_t> a = {0, 0, 0, 0, 0, 0};
  std::vector<std::int64_t> b = {0, 0, 0, 0, 4, 0};  // token (1, 1) differs
  auto la = lm.logits(a, batch, seq).value();
  auto lb = lm.logits(b, batch, seq).value();
  // Rows for batch 0 must be identical; batch-1 rows from t=1 on must differ.
  for (std::int64_t t_i = 0; t_i < seq; ++t_i) {
    for (std::int64_t v = 0; v < 5; ++v) {
      EXPECT_EQ(la.at({t_i, v}), lb.at({t_i, v}));
    }
  }
  double diff = 0.0;
  for (std::int64_t v = 0; v < 5; ++v) {
    diff += std::abs(la.at({seq + 1, v}) - lb.at({seq + 1, v}));
  }
  EXPECT_GT(diff, 0.0);
}

TEST(LanguageModel, TiedWeightsShareTable) {
  t::Rng rng(10);
  nn::LanguageModelConfig cfg;
  cfg.vocab = 9;
  cfg.embed_dim = 6;
  cfg.hidden = 6;
  cfg.layers = 1;
  cfg.tie_weights = true;
  nn::LSTMLanguageModel lm(cfg, rng);
  // Tied model has no separate output projection: embed + lstm params only.
  std::size_t linear_params = 0;
  for (const auto& [name, var] : lm.named_parameters()) {
    if (name.rfind("out.", 0) == 0) ++linear_params;
  }
  EXPECT_EQ(linear_params, 0u);
  std::vector<std::int64_t> tokens(2 * 4, 3);
  EXPECT_TRUE(std::isfinite(lm.loss(tokens, 2, 4).value().item()));
}

TEST(LanguageModel, TieRequiresMatchingDims) {
  t::Rng rng(11);
  nn::LanguageModelConfig cfg;
  cfg.embed_dim = 4;
  cfg.hidden = 8;
  cfg.tie_weights = true;
  EXPECT_THROW(nn::LSTMLanguageModel(cfg, rng), std::invalid_argument);
}

TEST(Seq2Seq, LossFiniteAndAccuracyBounded) {
  t::Rng rng(12);
  nn::Seq2SeqConfig cfg;
  cfg.src_vocab = 6;
  cfg.tgt_vocab = 8;
  cfg.embed_dim = 4;
  cfg.hidden = 5;
  nn::Seq2Seq model(cfg, rng);
  const std::int64_t batch = 3, src_len = 4, tgt_len_plus1 = 5;
  std::vector<std::int64_t> src(batch * src_len), tgt(batch * tgt_len_plus1);
  t::Rng data_rng(13);
  for (auto& s : src) s = data_rng.index(6);
  for (auto& s : tgt) s = data_rng.index(8);
  const double loss = model.loss(src, src_len, tgt, tgt_len_plus1, batch).value().item();
  EXPECT_TRUE(std::isfinite(loss));
  const double acc = model.token_accuracy(src, src_len, tgt, tgt_len_plus1, batch);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Seq2Seq, BufferSizeMismatchThrows) {
  t::Rng rng(14);
  nn::Seq2Seq model(nn::Seq2SeqConfig{}, rng);
  std::vector<std::int64_t> src(3), tgt(10);
  EXPECT_THROW(model.loss(src, 4, tgt, 5, 2), std::invalid_argument);
}
