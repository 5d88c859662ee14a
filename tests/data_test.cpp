#include <gtest/gtest.h>

#include "tensor/ops.hpp"

#include <cmath>
#include <set>

#include "data/bracket_lang.hpp"
#include "data/copy_translate.hpp"
#include "data/markov_text.hpp"
#include "data/synth_cifar.hpp"
#include "data/zipf_text.hpp"

namespace data = yf::data;
namespace t = yf::tensor;

TEST(SynthCifar, BatchShapes) {
  data::SynthCifarConfig cfg;
  cfg.classes = 4;
  cfg.height = 8;
  cfg.width = 8;
  data::SynthCifar ds(cfg);
  t::Rng rng(1);
  const auto b = ds.sample(6, rng);
  EXPECT_EQ(b.images.shape(), (t::Shape{6, 3, 8, 8}));
  EXPECT_EQ(b.labels.size(), 6u);
  for (auto l : b.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
}

TEST(SynthCifar, PrototypesFixedBySeed) {
  data::SynthCifarConfig cfg;
  cfg.seed = 5;
  data::SynthCifar a(cfg), b(cfg);
  EXPECT_TRUE(t::allclose(a.prototype(0), b.prototype(0)));
  cfg.seed = 6;
  data::SynthCifar c(cfg);
  EXPECT_FALSE(t::allclose(a.prototype(0), c.prototype(0)));
}

TEST(SynthCifar, SamplesClusterAroundPrototype) {
  data::SynthCifarConfig cfg;
  cfg.classes = 2;
  cfg.noise = 0.1;
  cfg.jitter = 0.0;
  data::SynthCifar ds(cfg);
  t::Rng rng(2);
  // Average many same-class samples: should approach the prototype.
  t::Tensor acc(ds.prototype(0).shape());
  int count = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto b = ds.sample(1, rng);
    if (b.labels[0] != 0) continue;
    acc.add_(b.images.reshape(acc.shape()));
    ++count;
  }
  ASSERT_GT(count, 100);
  acc.mul_(1.0 / count);
  EXPECT_LT(t::max_abs_diff(acc, ds.prototype(0)), 0.15);
}

TEST(SynthCifar, ValidationBatchDeterministic) {
  data::SynthCifar ds(data::SynthCifarConfig{});
  const auto a = ds.validation_batch(4);
  const auto b = ds.validation_batch(4);
  EXPECT_TRUE(t::allclose(a.images, b.images));
  EXPECT_EQ(a.labels, b.labels);
}

TEST(MarkovText, TransitionRowsAreDistributions) {
  data::MarkovText mt(data::MarkovTextConfig{});
  for (std::int64_t s = 0; s < mt.config().vocab; s += 13) {
    const auto& row = mt.transition_row(s);
    double total = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(MarkovText, BatchShapeAndRange) {
  data::MarkovTextConfig cfg;
  cfg.vocab = 12;
  data::MarkovText mt(cfg);
  t::Rng rng(3);
  const auto batch = mt.sample_batch(4, 9, rng);
  EXPECT_EQ(batch.size(), 36u);
  for (auto tok : batch) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, 12);
  }
}

TEST(MarkovText, EmpiricalTransitionsMatchTable) {
  data::MarkovTextConfig cfg;
  cfg.vocab = 5;
  cfg.seed = 11;
  data::MarkovText mt(cfg);
  t::Rng rng(4);
  // Long chains; count transitions from symbol 0.
  std::vector<double> counts(5, 0.0);
  double total = 0.0;
  const auto stream = mt.sample_batch(1, 200000, rng);
  for (std::size_t i = 0; i + 1 < stream.size(); ++i) {
    if (stream[i] == 0) {
      counts[static_cast<std::size_t>(stream[i + 1])] += 1.0;
      total += 1.0;
    }
  }
  ASSERT_GT(total, 1000.0);
  const auto& row = mt.transition_row(0);
  for (int j = 0; j < 5; ++j) {
    EXPECT_NEAR(counts[static_cast<std::size_t>(j)] / total, row[static_cast<std::size_t>(j)],
                0.02);
  }
}

// sample_batch draws each token as Rng::categorical over the transition
// row would, from running sums it keeps: 100,000 TS-sub batches (vocab 33,
// 6 x 13 tokens) equal a reference loop over categorical token for token,
// and the two generators end in the same state.
TEST(MarkovText, SampleBatchMatchesCategoricalDraws) {
  data::MarkovTextConfig cfg;
  cfg.vocab = 33;
  cfg.branching = 3;
  cfg.seed = 13;
  const data::MarkovText mt(cfg);
  const std::int64_t batch = 6, seq_plus1 = 13;
  t::Rng fast(2001), ref(2001);
  std::vector<std::int64_t> expected(static_cast<std::size_t>(batch * seq_plus1));
  for (int n = 0; n < 100000; ++n) {
    const auto got = mt.sample_batch(batch, seq_plus1, fast);
    for (std::int64_t b = 0; b < batch; ++b) {
      std::int64_t s = ref.index(cfg.vocab);
      for (std::int64_t i = 0; i < seq_plus1; ++i) {
        expected[static_cast<std::size_t>(b * seq_plus1 + i)] = s;
        s = ref.categorical(mt.transition_row(s));
      }
    }
    ASSERT_EQ(got, expected) << "batch " << n;
  }
  EXPECT_EQ(fast.engine()(), ref.engine()());
}

TEST(MarkovText, RejectsBadConfig) {
  data::MarkovTextConfig cfg;
  cfg.vocab = 1;
  EXPECT_THROW(data::MarkovText{cfg}, std::invalid_argument);
}

TEST(ZipfText, UnigramIsZipfian) {
  data::ZipfTextConfig cfg;
  cfg.vocab = 100;
  cfg.zipf_exponent = 1.0;
  data::ZipfText zt(cfg);
  const auto& u = zt.unigram();
  EXPECT_NEAR(u[0] / u[9], 10.0, 1e-9);  // p(rank1)/p(rank10) = 10 for s=1
  double total = 0.0;
  for (double p : u) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfText, BatchShapeAndRange) {
  data::ZipfTextConfig cfg;
  cfg.vocab = 50;
  data::ZipfText zt(cfg);
  t::Rng rng(5);
  const auto batch = zt.sample_batch(3, 21, rng);
  EXPECT_EQ(batch.size(), 63u);
  for (auto tok : batch) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, 50);
  }
}

TEST(ZipfText, HeadTokensDominate) {
  data::ZipfText zt(data::ZipfTextConfig{});
  t::Rng rng(6);
  const auto batch = zt.sample_batch(1, 20000, rng);
  std::size_t head = 0;
  for (auto tok : batch) {
    if (tok < 10) ++head;
  }
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(batch.size()), 0.4);
}

TEST(BracketLang, TreesAreBalanced) {
  data::BracketLang bl(data::BracketLangConfig{});
  t::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const auto tree = bl.sample_tree(rng);
    std::int64_t depth = 0;
    for (auto tok : tree) {
      if (tok == data::BracketLang::kOpen) ++depth;
      if (tok == data::BracketLang::kClose) --depth;
      EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(tree.front(), data::BracketLang::kOpen);
    EXPECT_EQ(tree.back(), data::BracketLang::kClose);
  }
}

TEST(BracketLang, TokensInVocabRange) {
  data::BracketLangConfig cfg;
  cfg.labels = 3;
  cfg.terminals = 4;
  data::BracketLang bl(cfg);
  t::Rng rng(8);
  const auto batch = bl.sample_batch(2, 31, rng);
  EXPECT_EQ(batch.size(), 62u);
  for (auto tok : batch) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, bl.vocab());
  }
}

TEST(BracketLang, F1PerfectAndWorst) {
  using BL = data::BracketLang;
  const std::vector<std::int64_t> target = {BL::kOpen, 2, 5, BL::kClose};
  EXPECT_EQ(BL::bracket_f1(target, target), 1.0);
  const std::vector<std::int64_t> wrong = {5, 5, BL::kOpen, 2};
  EXPECT_EQ(BL::bracket_f1(wrong, target), 0.0);
}

TEST(BracketLang, F1PartialCredit) {
  using BL = data::BracketLang;
  const std::vector<std::int64_t> target = {BL::kOpen, BL::kClose, 4, 4};
  const std::vector<std::int64_t> pred = {BL::kOpen, 4, 4, 4};  // tp=1, fn=1
  EXPECT_NEAR(BL::bracket_f1(pred, target), 2.0 / 3.0, 1e-12);
}

TEST(CopyTranslate, TargetIsReversedPermutedSource) {
  data::CopyTranslateConfig cfg;
  cfg.vocab = 6;
  cfg.src_len = 4;
  data::CopyTranslate ct(cfg);
  t::Rng rng(9);
  const auto b = ct.sample(2, rng);
  EXPECT_EQ(b.src.size(), 8u);
  EXPECT_EQ(b.tgt.size(), 12u);
  for (std::int64_t i = 0; i < 2; ++i) {
    EXPECT_EQ(b.tgt[static_cast<std::size_t>(i * 6)], ct.bos());
    EXPECT_EQ(b.tgt[static_cast<std::size_t>(i * 6 + 5)], ct.eos());
    for (std::int64_t t_i = 0; t_i < 4; ++t_i) {
      const auto src_tok = b.src[static_cast<std::size_t>(i * 4 + (3 - t_i))];
      EXPECT_EQ(b.tgt[static_cast<std::size_t>(i * 6 + 1 + t_i)],
                ct.permutation()[static_cast<std::size_t>(src_tok)]);
    }
  }
}

TEST(CopyTranslate, PermutationIsBijective) {
  data::CopyTranslate ct(data::CopyTranslateConfig{});
  std::set<std::int64_t> seen(ct.permutation().begin(), ct.permutation().end());
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), ct.src_vocab());
}
