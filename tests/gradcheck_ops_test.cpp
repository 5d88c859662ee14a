// Finite-difference gradient checks for every differentiable op
// (parameterized over op kind), plus composite graphs.
#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "tensor/random.hpp"

#include <gtest/gtest.h>

namespace ag = yf::autograd;
namespace t = yf::tensor;

namespace {

using UnaryBuilder = ag::Variable (*)(const ag::Variable&);

struct UnaryCase {
  const char* name;
  UnaryBuilder build;
  double lo, hi;  // input sampling range
};

class UnaryGradcheck : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradcheck, MatchesFiniteDifferences) {
  const auto& param = GetParam();
  t::Rng rng(7);
  auto x = ag::Variable(rng.uniform_tensor({2, 3}, param.lo, param.hi), true);
  auto fn = [&](const std::vector<ag::Variable>& in) {
    return ag::sum(param.build(in[0]));
  };
  const auto result = ag::gradcheck(fn, {x});
  EXPECT_TRUE(result.ok) << param.name << ": " << result.detail;
}

ag::Variable build_square_via_mul(const ag::Variable& v) { return ag::mul(v, v); }
ag::Variable build_scaled(const ag::Variable& v) { return ag::mul_scalar(v, -2.5); }

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradcheck,
    ::testing::Values(UnaryCase{"tanh", &ag::tanh, -2.0, 2.0},
                      UnaryCase{"sigmoid", &ag::sigmoid, -2.0, 2.0},
                      UnaryCase{"square", &ag::square, -2.0, 2.0},
                      UnaryCase{"mul_by_self", &build_square_via_mul, -2.0, 2.0},
                      UnaryCase{"mul_scalar", &build_scaled, -2.0, 2.0}),
    [](const ::testing::TestParamInfo<UnaryCase>& info) { return info.param.name; });

}  // namespace

TEST(Gradcheck, ReluAwayFromKink) {
  // ReLU is non-differentiable at 0; sample away from it.
  t::Rng rng(11);
  auto x = ag::Variable(rng.uniform_tensor({2, 3}, 0.5, 2.0), true);
  auto y = ag::Variable(rng.uniform_tensor({2, 3}, -2.0, -0.5), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::relu(ag::mul(in[0], in[1])));
  };
  const auto result = ag::gradcheck(fn, {x, y});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, Matmul) {
  t::Rng rng(13);
  auto a = ag::Variable(rng.normal_tensor({3, 4}), true);
  auto b = ag::Variable(rng.normal_tensor({4, 2}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::square(ag::matmul(in[0], in[1])));
  };
  const auto result = ag::gradcheck(fn, {a, b});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, AddRowBroadcast) {
  t::Rng rng(17);
  auto a = ag::Variable(rng.normal_tensor({3, 4}), true);
  auto bias = ag::Variable(rng.normal_tensor({4}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::square(ag::add_row_broadcast(in[0], in[1])));
  };
  const auto result = ag::gradcheck(fn, {a, bias});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, SoftmaxCrossEntropy) {
  t::Rng rng(19);
  auto logits = ag::Variable(rng.normal_tensor({4, 5}), true);
  const std::vector<std::int64_t> labels = {0, 2, 4, 1};
  auto fn = [&](const std::vector<ag::Variable>& in) {
    return ag::softmax_cross_entropy(in[0], labels);
  };
  const auto result = ag::gradcheck(fn, {logits});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, Embedding) {
  t::Rng rng(29);
  auto w = ag::Variable(rng.normal_tensor({5, 3}), true);
  const std::vector<std::int64_t> idx = {0, 4, 4, 2};
  auto fn = [&](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::square(ag::embedding(in[0], idx)));
  };
  const auto result = ag::gradcheck(fn, {w});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, Conv2dAllInputs) {
  t::Rng rng(31);
  auto x = ag::Variable(rng.normal_tensor({2, 2, 4, 4}), true);
  auto w = ag::Variable(rng.normal_tensor({3, 2, 3, 3}, 0.0, 0.5), true);
  auto b = ag::Variable(rng.normal_tensor({3}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::square(ag::conv2d(in[0], in[1], in[2], 1, 1)));
  };
  const auto result = ag::gradcheck(fn, {x, w, b}, 1e-5, 1e-5, 1e-3);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, Conv2dStride2) {
  t::Rng rng(37);
  auto x = ag::Variable(rng.normal_tensor({1, 2, 6, 6}), true);
  auto w = ag::Variable(rng.normal_tensor({2, 2, 3, 3}, 0.0, 0.5), true);
  auto b = ag::Variable(rng.normal_tensor({2}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::square(ag::conv2d(in[0], in[1], in[2], 2, 1)));
  };
  const auto result = ag::gradcheck(fn, {x, w, b}, 1e-5, 1e-5, 1e-3);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, GlobalAvgPool) {
  t::Rng rng(41);
  auto x = ag::Variable(rng.normal_tensor({2, 3, 4, 4}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::square(ag::global_avg_pool(in[0])));
  };
  const auto result = ag::gradcheck(fn, {x});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, SliceConcatComposite) {
  t::Rng rng(47);
  auto x = ag::Variable(rng.normal_tensor({3, 6}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    auto left = ag::slice_cols(in[0], 0, 3);
    auto right = ag::slice_cols(in[0], 3, 6);
    return ag::sum(ag::square(ag::concat_cols({ag::tanh(left), ag::sigmoid(right)})));
  };
  const auto result = ag::gradcheck(fn, {x});
  EXPECT_TRUE(result.ok) << result.detail;
}

// The LSTM cell op on plain operands, then reading its packed state as
// the next layer's x and as the next step's h and c.
TEST(Gradcheck, LstmCell) {
  t::Rng rng(61);
  std::vector<ag::Variable> inputs;
  for (const t::Shape& s : std::vector<t::Shape>{{3, 2}, {3, 3}, {3, 3}, {2, 12}, {3, 12}, {12},
                                                 {3, 12}}) {
    inputs.emplace_back(rng.normal_tensor(s, 0.0, 0.7), true);
  }
  auto fn = [](const std::vector<ag::Variable>& in) {
    const auto &x = in[0], &h0 = in[1], &c0 = in[2], &wx = in[3], &wh = in[4], &b = in[5];
    auto step = ag::lstm_cell(x, h0, c0, wx, wh, b);
    auto above = ag::lstm_cell(step, h0, c0, in[6], wh, b);
    auto next = ag::lstm_cell(x, step, step, wx, wh, b);
    return ag::add(ag::sum(ag::square(above)), ag::sum(ag::square(next)));
  };
  const auto result = ag::gradcheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, TransposeComposite) {
  t::Rng rng(53);
  auto a = ag::Variable(rng.normal_tensor({3, 4}), true);
  auto b = ag::Variable(rng.normal_tensor({3, 2}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    return ag::sum(ag::square(ag::matmul(ag::transpose(in[0]), in[1])));
  };
  const auto result = ag::gradcheck(fn, {a, b});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, DeepCompositeChain) {
  t::Rng rng(59);
  auto x = ag::Variable(rng.normal_tensor({2, 3}), true);
  auto w1 = ag::Variable(rng.normal_tensor({3, 3}, 0.0, 0.5), true);
  auto w2 = ag::Variable(rng.normal_tensor({3, 2}, 0.0, 0.5), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    auto h = ag::tanh(ag::matmul(in[0], in[1]));
    auto o = ag::sigmoid(ag::matmul(h, in[2]));
    return ag::mean(ag::square(o));
  };
  const auto result = ag::gradcheck(fn, {x, w1, w2});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(Gradcheck, ReportsFailureForWrongGradient) {
  // A deliberately broken function (value depends on input, but we cut the
  // graph) must be flagged.
  auto x = ag::Variable(t::Tensor({2}, {1.0, 2.0}), true);
  auto fn = [](const std::vector<ag::Variable>& in) {
    // Constant graph wrt x but numerically dependent on x's value.
    auto detached = ag::Variable(in[0].value().clone(), false);
    return ag::sum(ag::mul(detached, detached));
  };
  const auto result = ag::gradcheck(fn, {x});
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.detail.empty());
}
