// GEMM subsystem tests (core/gemm.hpp, DESIGN.md §9).
//
// The determinism contract under test: every path -- packed or small,
// scalar or AVX2 backend, any pool fan-out -- accumulates each output
// element in the canonical KC-panel order (kernel_table.hpp), so all of
// them are EXPECT_EQ-bit-identical to the independent reference
// reimplemented here, and the NT/TN layout variants are bit-identical
// to materializing the transpose and running NN (packing reorders
// *reads*, never arithmetic). That compositionally pins the autograd
// rewrite: the matmul/conv pullbacks that used to transpose-then-multiply
// now call the NT/TN kernels, and the op-level equalities below prove
// gradients could not have moved.
#include "core/gemm.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "core/kernels/kernel_table.hpp"
#include "core/parallel.hpp"
#include "data/markov_text.hpp"
#include "nn/language_model.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace ag = yf::autograd;
namespace core = yf::core;
namespace t = yf::tensor;

namespace {

std::vector<double> random_vec(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Run `fn` with `table` active, restoring the previous table.
template <typename F>
auto with_table(const core::detail::NamedKernelTable& table, F&& fn) {
  const core::detail::ActiveTableScope scope(*table.table);
  return fn();
}

/// Independent reimplementation of the canonical accumulation order
/// (kernel_table.hpp): per element, one partial sum per 256-deep k
/// panel (kk ascending, single accumulator from 0.0), panels combined
/// in ascending order with the first overwriting C. Deliberately not
/// written via the library's helpers.
void ref_gemm(core::GemmVariant v, double* c, const double* a, const double* b, std::int64_t m,
              std::int64_t n, std::int64_t k) {
  constexpr std::int64_t kPanel = 256;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double out = 0.0;
      for (std::int64_t p0 = 0; p0 < k || p0 == 0; p0 += kPanel) {
        double acc = 0.0;
        const std::int64_t pe = std::min(k, p0 + kPanel);
        for (std::int64_t kk = p0; kk < pe; ++kk) {
          const double av = v == core::GemmVariant::kTN ? a[kk * m + i] : a[i * k + kk];
          const double bv = v == core::GemmVariant::kNT ? b[j * k + kk] : b[kk * n + j];
          acc += av * bv;
        }
        out = p0 == 0 ? acc : out + acc;
        if (k == 0) break;
      }
      c[i * n + j] = out;
    }
  }
}

struct Shape {
  std::int64_t m, n, k;
};

/// Shapes straddling every tail case: n mod NR (8), k mod KC (256),
/// 1 x N row products, M x 1 column products, k == 0, plus shapes on
/// both sides of the small-path thresholds (flops and row count). The
/// m = 6 shapes are train_lm's own products: they reach the NT kernel's
/// two-row remainder tile and the k = 6 and 33 tails of its 4-deep
/// blocks; {6, 20, 258} crosses a KC panel with a two-deep k tail.
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {1, 300, 40}, {40, 1, 33},   {8, 64, 512},
    {5, 9, 300},  {17, 96, 256}, {33, 70, 71}, {96, 100, 257}, {97, 103, 300},
    {64, 64, 64}, {2, 8, 0},     {6, 64, 12},  {6, 64, 16},   {6, 33, 16},
    {6, 12, 64},  {6, 16, 64},   {6, 16, 33},  {12, 64, 6},   {16, 64, 6},
    {6, 20, 258},
};

std::int64_t a_len(core::GemmVariant v, const Shape& s) {
  return std::max<std::int64_t>(1, v == core::GemmVariant::kTN ? s.k * s.m : s.m * s.k);
}
std::int64_t b_len(core::GemmVariant v, const Shape& s) {
  return std::max<std::int64_t>(1, v == core::GemmVariant::kNT ? s.n * s.k : s.k * s.n);
}

const core::GemmVariant kVariants[] = {core::GemmVariant::kNN, core::GemmVariant::kNT,
                                       core::GemmVariant::kTN};

const char* variant_name(core::GemmVariant v) {
  switch (v) {
    case core::GemmVariant::kNN: return "nn";
    case core::GemmVariant::kNT: return "nt";
    case core::GemmVariant::kTN: return "tn";
  }
  return "?";
}

}  // namespace

TEST(Gemm, MatchesCanonicalReferenceBitwise) {
  for (const auto& s : kShapes) {
    for (const auto v : kVariants) {
      const auto a = random_vec(static_cast<std::size_t>(a_len(v, s)), 11);
      const auto b = random_vec(static_cast<std::size_t>(b_len(v, s)), 12);
      std::vector<double> c(static_cast<std::size_t>(s.m * s.n), 0.5);
      std::vector<double> expect(c.size(), -0.25);
      core::gemm(v, c.data(), a.data(), b.data(), s.m, s.n, s.k);
      ref_gemm(v, expect.data(), a.data(), b.data(), s.m, s.n, s.k);
      for (std::size_t i = 0; i < c.size(); ++i) {
        ASSERT_EQ(c[i], expect[i]) << variant_name(v) << " " << s.m << "x" << s.n << "x" << s.k
                                   << " @" << i;
      }
    }
  }
}

TEST(Gemm, PackedAndSmallPathsBitIdentical) {
  // The size-bucket dispatch must be invisible in results: force both
  // engines on shapes that would naturally pick either one.
  for (const auto& s : kShapes) {
    if (s.m * s.n * s.k == 0) continue;
    for (const auto v : kVariants) {
      const auto a = random_vec(static_cast<std::size_t>(a_len(v, s)), 21);
      const auto b = random_vec(static_cast<std::size_t>(b_len(v, s)), 22);
      std::vector<double> packed(static_cast<std::size_t>(s.m * s.n), 1.0);
      std::vector<double> small(packed.size(), 2.0);
      core::detail::gemm_packed(v, packed.data(), a.data(), b.data(), s.m, s.n, s.k);
      core::detail::gemm_small(v, small.data(), a.data(), b.data(), s.m, s.n, s.k);
      for (std::size_t i = 0; i < packed.size(); ++i) {
        ASSERT_EQ(packed[i], small[i]) << variant_name(v) << " " << s.m << "x" << s.n << "x"
                                       << s.k << " @" << i;
      }
    }
  }
}

TEST(Gemm, EveryTableMatchesScalarBitwise) {
  const auto tables = core::detail::runnable_tables();
  for (const auto& s : kShapes) {
    for (const auto v : kVariants) {
      const auto a = random_vec(static_cast<std::size_t>(a_len(v, s)), 31);
      const auto b = random_vec(static_cast<std::size_t>(b_len(v, s)), 32);
      // Both forced paths under every table against the scalar table.
      for (const bool packed : {false, true}) {
        if (packed && s.k == 0) continue;
        auto run = [&](const core::detail::NamedKernelTable& table) {
          return with_table(table, [&] {
            std::vector<double> c(static_cast<std::size_t>(s.m * s.n), 3.0);
            if (packed) {
              core::detail::gemm_packed(v, c.data(), a.data(), b.data(), s.m, s.n, s.k);
            } else {
              core::detail::gemm_small(v, c.data(), a.data(), b.data(), s.m, s.n, s.k);
            }
            return c;
          });
        };
        const auto scalar_out = run(tables.front());
        for (const auto& table : tables) {
          const auto out = run(table);
          for (std::size_t i = 0; i < scalar_out.size(); ++i) {
            ASSERT_EQ(scalar_out[i], out[i])
                << table.name << " " << variant_name(v) << (packed ? " packed " : " small ")
                << s.m << "x" << s.n << "x" << s.k << " @" << i;
          }
        }
      }
    }
  }
}

TEST(Gemm, SmallEntriesMatchScalarAcrossTileEdges) {
  // Every table's gemm_small_* entry, called directly, against the scalar
  // table's at every row remainder of 4- and 8-row tiles (m = 1..17),
  // column counts on both sides of 4-, 8- and 16-wide vectors (33 is
  // train_lm's LM head), and k from one element through two KC panels.
  // Plain form into a NaN-filled C; accumulate form into a C holding -0.0
  // entries and a +0.0 row, with a -0.0 row of op(A) whose products are
  // signed zeros.
  const auto tables = core::detail::runnable_tables();
  if (tables.size() < 2) GTEST_SKIP() << "no SIMD kernel table on this machine";
  using Entry = void (*)(double*, const double*, const double*, std::int64_t, std::int64_t,
                         std::int64_t, bool);
  const auto entry = [](const core::detail::KernelTable& t, core::GemmVariant v) -> Entry {
    switch (v) {
      case core::GemmVariant::kNN: return t.gemm_small_nn;
      case core::GemmVariant::kNT: return t.gemm_small_nt;
      case core::GemmVariant::kTN: return t.gemm_small_tn;
    }
    return nullptr;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::int64_t k : {1, 6, 64, 256, 257, 300}) {
    for (const std::int64_t n : {1, 7, 8, 9, 15, 16, 17, 33, 64, 65}) {
      for (std::int64_t m = 1; m <= 17; ++m) {
        const Shape s{m, n, k};
        for (const auto v : kVariants) {
          auto a = random_vec(static_cast<std::size_t>(a_len(v, s)), 61);
          const auto b = random_vec(static_cast<std::size_t>(b_len(v, s)), 62);
          const std::int64_t zero_row = m / 2;
          for (std::int64_t kk = 0; kk < k; ++kk) {
            a[static_cast<std::size_t>(v == core::GemmVariant::kTN ? kk * m + zero_row
                                                                   : zero_row * k + kk)] = -0.0;
          }
          auto c0 = random_vec(static_cast<std::size_t>(m * n), 63);
          for (std::size_t i = 0; i < c0.size(); i += 3) c0[i] = -0.0;
          for (std::int64_t j = 0; j < n; ++j) c0[static_cast<std::size_t>((m - 1) * n + j)] = 0.0;
          for (const bool accumulate : {false, true}) {
            auto run = [&](const core::detail::KernelTable& t) {
              std::vector<double> c = accumulate ? c0 : std::vector<double>(c0.size(), nan);
              entry(t, v)(c.data(), a.data(), b.data(), m, n, k, accumulate);
              return c;
            };
            const auto want = run(*tables.front().table);
            for (std::size_t t = 1; t < tables.size(); ++t) {
              const auto got = run(*tables[t].table);
              for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                          std::bit_cast<std::uint64_t>(want[i]))
                    << tables[t].name << " " << variant_name(v)
                    << (accumulate ? " accumulate " : " plain ") << m << "x" << n << "x" << k
                    << " @" << i << ": " << got[i] << " vs " << want[i];
              }
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, ThreadCountAndPartitionInvariant) {
  // Row-block parallelism partitions disjoint output rows; any fan-out
  // (including several chunks per worker) must be bitwise invisible.
  const Shape s{200, 96, 300};  // 3 row blocks in the packed path
  const auto a = random_vec(static_cast<std::size_t>(s.m * s.k), 41);
  const auto b = random_vec(static_cast<std::size_t>(s.k * s.n), 42);
  auto& pool = core::ThreadPool::instance();
  const auto old_fanout = pool.fanout();
  auto run = [&](std::size_t fanout) {
    pool.set_fanout(fanout);
    std::vector<double> c(static_cast<std::size_t>(s.m * s.n));
    core::detail::gemm_packed(core::GemmVariant::kNN, c.data(), a.data(), b.data(), s.m, s.n,
                              s.k);
    return c;
  };
  const auto one = run(1);
  for (const std::size_t fanout : {2u, 3u, 8u}) {
    const auto many = run(fanout);
    for (std::size_t i = 0; i < one.size(); ++i) {
      ASSERT_EQ(one[i], many[i]) << "fanout " << fanout << " @" << i;
    }
  }
  pool.set_fanout(old_fanout);
}

TEST(Gemm, AccumulateMatchesProductThenAdd) {
  // C += op(A)·op(B) must add exactly what the product formed in scratch
  // and then added with Tensor::add_ adds. k = 6 and 256 are one k-panel,
  // added into C in place; k = 300 spans two panels, which the driver
  // still forms in scratch first. Row 0 of op(A) is zero, so its product
  // is +0.0 and the -0.0 entries of C there must turn into +0.0 as an add
  // of the product would turn them.
  for (const auto& table : core::detail::runnable_tables()) {
    with_table(table, [&] {
      for (const auto& s : {Shape{16, 64, 6}, Shape{16, 64, 256}, Shape{16, 64, 300},
                            Shape{7, 13, 6}, Shape{7, 13, 256}, Shape{7, 13, 300}}) {
        for (const auto v : kVariants) {
          auto a = random_vec(static_cast<std::size_t>(a_len(v, s)), 51);
          const auto b = random_vec(static_cast<std::size_t>(b_len(v, s)), 52);
          for (std::int64_t kk = 0; kk < s.k; ++kk) {
            a[static_cast<std::size_t>(v == core::GemmVariant::kTN ? kk * s.m : kk)] = 0.0;
          }
          t::Tensor c0(t::Shape{s.m, s.n}, random_vec(static_cast<std::size_t>(s.m * s.n), 53));
          for (std::int64_t i = 0; i < c0.size(); i += 3) c0[i] = -0.0;
          for (const bool packed : {false, true}) {
            const auto path = packed ? core::detail::gemm_packed : core::detail::gemm_small;
            t::Tensor product(t::Shape{s.m, s.n});
            path(v, product.data().data(), a.data(), b.data(), s.m, s.n, s.k, false);
            t::Tensor expect = c0.clone();
            expect.add_(product);
            t::Tensor got = c0.clone();
            path(v, got.data().data(), a.data(), b.data(), s.m, s.n, s.k, true);
            for (std::int64_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                        std::bit_cast<std::uint64_t>(expect[i]))
                  << table.name << " " << variant_name(v)
                  << (packed ? " packed " : " small ") << s.m << "x" << s.n << "x" << s.k
                  << " @" << i << ": " << got[i] << " vs " << expect[i];
            }
          }
        }
      }
    });
  }
}

TEST(Gemm, DirtyReusedOutputIsOverwritten) {
  // matmul_into used to zero the output before an accumulating kernel;
  // the GEMM's beta=0 first panel makes that pass unnecessary. A reused
  // output full of garbage (including NaN, which any read-modify-write
  // would propagate) must produce exactly the fresh-output result.
  t::Rng rng(7);
  for (const auto& s : {Shape{6, 10, 12}, Shape{40, 70, 300}}) {
    const auto a = rng.normal_tensor({s.m, s.k});
    const auto b = rng.normal_tensor({s.k, s.n});
    const auto fresh = t::matmul(a, b);
    t::Tensor dirty(t::Shape{s.m, s.n});
    dirty.fill(std::numeric_limits<double>::quiet_NaN());
    t::matmul_into(dirty, a, b);
    for (std::int64_t i = 0; i < dirty.size(); ++i) ASSERT_EQ(dirty[i], fresh[i]) << i;
  }
  // k == 0 must zero the output, not leave it dirty.
  t::Tensor empty_a(t::Shape{3, 0}), empty_b(t::Shape{0, 4});
  t::Tensor dirty(t::Shape{3, 4});
  dirty.fill(123.0);
  t::matmul_into(dirty, empty_a, empty_b);
  for (std::int64_t i = 0; i < dirty.size(); ++i) ASSERT_EQ(dirty[i], 0.0) << i;
}

TEST(Gemm, NtTnMatchMaterializedTransposeBitwise) {
  // The packing step absorbs op(B)/op(A); element arithmetic is
  // untouched, so NT/TN must equal transpose-then-NN exactly.
  t::Rng rng(9);
  for (const auto& s : {Shape{5, 9, 11}, Shape{33, 70, 280}}) {
    const auto a = rng.normal_tensor({s.m, s.k});
    const auto bt = rng.normal_tensor({s.n, s.k});  // NT operand
    const auto at = rng.normal_tensor({s.k, s.m});  // TN operand
    const auto b = rng.normal_tensor({s.k, s.n});
    const auto nt = t::matmul_nt(a, bt);
    const auto nt_ref = t::matmul(a, t::transpose(bt));
    const auto tn = t::matmul_tn(at, b);
    const auto tn_ref = t::matmul(t::transpose(at), b);
    for (std::int64_t i = 0; i < nt.size(); ++i) ASSERT_EQ(nt[i], nt_ref[i]) << "nt @" << i;
    for (std::int64_t i = 0; i < tn.size(); ++i) ASSERT_EQ(tn[i], tn_ref[i]) << "tn @" << i;
  }
}

TEST(Gemm, MatmulPullbackMatchesMaterializedTransposeBitwise) {
  // The autograd matmul pullback moved from transpose_into + matmul_into
  // onto the NT/TN variants. Gradients must be bit-identical to the
  // historical materialize-then-multiply formulation.
  t::Rng rng(13);
  const auto av = rng.normal_tensor({7, 12});
  const auto bv = rng.normal_tensor({12, 9});
  ag::Variable a(av.clone(), /*requires_grad=*/true);
  ag::Variable b(bv.clone(), /*requires_grad=*/true);
  auto loss = ag::sum(ag::square(ag::matmul(a, b)));
  loss.backward();

  // Reference: dC = 2 * C elementwise (from sum-of-squares), then the
  // pre-rewrite gradient products with explicit transposes.
  const auto c = t::matmul(av, bv);
  t::Tensor dC(t::Shape{7, 9});
  for (std::int64_t i = 0; i < dC.size(); ++i) dC[i] = 2.0 * c[i];
  const auto dA = t::matmul(dC, t::transpose(bv));
  const auto dB = t::matmul(t::transpose(av), dC);
  for (std::int64_t i = 0; i < dA.size(); ++i) ASSERT_EQ(a.grad()[i], dA[i]) << "dA @" << i;
  for (std::int64_t i = 0; i < dB.size(); ++i) ASSERT_EQ(b.grad()[i], dB[i]) << "dB @" << i;
}

TEST(Gemm, MatmulNtOpMatchesTransposeCompositionBitwise) {
  // ag::matmul_nt (the tied-embedding decode) against the op composition
  // it replaced: value AND both gradients, EXPECT_EQ.
  t::Rng rng(17);
  const auto hv = rng.normal_tensor({6, 16});
  const auto ev = rng.normal_tensor({40, 16});
  auto run = [&](bool use_nt) {
    ag::Variable h(hv.clone(), /*requires_grad=*/true);
    ag::Variable e(ev.clone(), /*requires_grad=*/true);
    auto logits = use_nt ? ag::matmul_nt(h, e) : ag::matmul(h, ag::transpose(e));
    auto loss = ag::sum(ag::square(logits));
    loss.backward();
    return std::tuple{logits.value().clone(), h.grad().clone(), e.grad().clone()};
  };
  const auto [val_nt, dh_nt, de_nt] = run(true);
  const auto [val_tr, dh_tr, de_tr] = run(false);
  for (std::int64_t i = 0; i < val_nt.size(); ++i) ASSERT_EQ(val_nt[i], val_tr[i]) << "C @" << i;
  for (std::int64_t i = 0; i < dh_nt.size(); ++i) ASSERT_EQ(dh_nt[i], dh_tr[i]) << "dH @" << i;
  for (std::int64_t i = 0; i < de_nt.size(); ++i) ASSERT_EQ(de_nt[i], de_tr[i]) << "dE @" << i;
}

TEST(Gemm, MatmulNtGradcheck) {
  t::Rng rng(19);
  auto result = ag::gradcheck(
      [](const std::vector<ag::Variable>& in) {
        return ag::sum(ag::square(ag::matmul_nt(in[0], in[1])));
      },
      {ag::Variable(rng.normal_tensor({3, 5}), true),
       ag::Variable(rng.normal_tensor({4, 5}), true)});
  EXPECT_TRUE(result.ok) << result.detail;
}

namespace {

/// Train a tiny tied-weights LM (decode runs through ag::matmul_nt; the
/// LSTM gates and pullbacks run through all three GEMM layouts) and
/// return every parameter after `steps` steps.
std::vector<t::Tensor> lm_trajectory(std::int64_t steps) {
  yf::data::MarkovTextConfig dcfg;
  dcfg.vocab = 20;
  dcfg.branching = 2;
  yf::data::MarkovText dataset(dcfg);
  t::Rng data_rng(3);
  const std::int64_t batch = 4, seq_plus1 = 7;

  yf::nn::LanguageModelConfig cfg;
  cfg.vocab = 20;
  cfg.embed_dim = 12;
  cfg.hidden = 12;
  cfg.layers = 1;
  cfg.tie_weights = true;
  t::Rng model_rng(1);
  yf::nn::LSTMLanguageModel model(cfg, model_rng);
  yf::optim::MomentumSGD opt(model.parameters(), 0.1, 0.9);
  for (std::int64_t i = 0; i < steps; ++i) {
    opt.zero_grad();
    auto loss = model.loss(dataset.sample_batch(batch, seq_plus1, data_rng), batch, seq_plus1);
    loss.backward();
    opt.step();
  }
  std::vector<t::Tensor> out;
  for (const auto& p : model.parameters()) out.push_back(p.value().clone());
  return out;
}

/// Train a lone conv2d + bias layer (im2col forward NT, dW through TN)
/// and return weight and bias.
std::vector<t::Tensor> conv_trajectory(std::int64_t steps) {
  t::Rng rng(5);
  ag::Variable w(rng.normal_tensor({4, 3, 3, 3}, 0.0, 0.2), /*requires_grad=*/true);
  ag::Variable bias(t::Tensor::zeros({4}), /*requires_grad=*/true);
  const auto x = rng.normal_tensor({2, 3, 8, 8});
  const auto target = rng.normal_tensor({2, 4, 8, 8});
  yf::optim::MomentumSGD opt({w, bias}, 0.05, 0.9);
  for (std::int64_t i = 0; i < steps; ++i) {
    opt.zero_grad();
    auto out = ag::conv2d(ag::Variable(x), w, bias, /*stride=*/1, /*pad=*/1);
    auto loss = ag::mean(ag::square(ag::sub(out, ag::Variable(target))));
    loss.backward();
    opt.step();
  }
  return {w.value().clone(), bias.value().clone()};
}

void expect_tensors_eq(const std::vector<t::Tensor>& x, const std::vector<t::Tensor>& y,
                       const char* what) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t p = 0; p < x.size(); ++p) {
    ASSERT_EQ(x[p].size(), y[p].size());
    for (std::int64_t i = 0; i < x[p].size(); ++i) {
      ASSERT_EQ(x[p][i], y[p][i]) << what << " param " << p << " @" << i;
    }
  }
}

}  // namespace

TEST(Gemm, LmTrainingTrajectoryBackendBitIdentical) {
  const auto tables = core::detail::runnable_tables();
  if (tables.size() < 2) GTEST_SKIP() << "no SIMD kernel table on this machine";
  const auto scalar = with_table(tables.front(), [] { return lm_trajectory(4); });
  for (std::size_t t = 1; t < tables.size(); ++t) {
    expect_tensors_eq(scalar, with_table(tables[t], [] { return lm_trajectory(4); }),
                      tables[t].name);
  }
}

TEST(Gemm, ConvTrainingTrajectoryBackendBitIdentical) {
  const auto tables = core::detail::runnable_tables();
  if (tables.size() < 2) GTEST_SKIP() << "no SIMD kernel table on this machine";
  const auto scalar = with_table(tables.front(), [] { return conv_trajectory(4); });
  for (std::size_t t = 1; t < tables.size(); ++t) {
    expect_tensors_eq(scalar, with_table(tables[t], [] { return conv_trajectory(4); }),
                      tables[t].name);
  }
}
