#include "autograd/ops.hpp"
#include "autograd/variable.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"

namespace ag = yf::autograd;
namespace t = yf::tensor;

namespace {
ag::Variable leaf(std::vector<double> v, bool rg = true) {
  const auto n = static_cast<std::int64_t>(v.size());
  return ag::Variable(t::Tensor({n}, std::move(v)), rg);
}
}  // namespace

TEST(Autograd, LeafValueAndGrad) {
  auto x = leaf({1, 2});
  EXPECT_TRUE(x.requires_grad());
  // A fresh leaf has no materialized gradient: absent means zero, and
  // grad() must neither allocate nor mutate the node.
  EXPECT_FALSE(x.has_grad());
  EXPECT_EQ(x.grad().size(), 0);
  EXPECT_FALSE(x.has_grad());  // reading grad() did not materialize it
  ag::sum(x).backward();
  ASSERT_TRUE(x.has_grad());
  EXPECT_EQ(x.grad().size(), 2);
  EXPECT_EQ(x.grad()[0], 1.0);
}

TEST(Autograd, EmptyGradStoryIsExplicit) {
  auto x = leaf({1, 2, 3});
  auto y = leaf({4, 5, 6});
  // zero_grad on an absent gradient is a no-op (absent already means 0).
  x.zero_grad();
  EXPECT_FALSE(x.has_grad());
  // The empty sentinel is shared, not per-variable state.
  EXPECT_EQ(x.grad().data().data(), y.grad().data().data());
  // ensure_grad() is the explicit way to materialize dense zeros.
  x.node()->ensure_grad();
  ASSERT_TRUE(x.has_grad());
  EXPECT_EQ(x.grad().size(), 3);
  EXPECT_EQ(x.grad()[2], 0.0);
  EXPECT_FALSE(y.has_grad());
}

TEST(Autograd, UndefinedVariableThrows) {
  ag::Variable v;
  EXPECT_FALSE(v.defined());
  EXPECT_THROW(v.value(), std::logic_error);
  EXPECT_THROW(v.backward(), std::logic_error);
}

TEST(Autograd, BackwardRequiresScalar) {
  auto x = leaf({1, 2});
  EXPECT_THROW(x.backward(), std::invalid_argument);
}

TEST(Autograd, SumBackwardIsOnes) {
  auto x = leaf({1, 2, 3});
  ag::sum(x).backward();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(x.grad()[i], 1.0);
}

TEST(Autograd, MeanBackward) {
  auto x = leaf({1, 2, 3, 4});
  ag::mean(x).backward();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(x.grad()[i], 0.25);
}

TEST(Autograd, AddPropagatesToBoth) {
  auto x = leaf({1, 2});
  auto y = leaf({3, 4});
  ag::sum(ag::add(x, y)).backward();
  EXPECT_EQ(x.grad()[0], 1.0);
  EXPECT_EQ(y.grad()[1], 1.0);
}

TEST(Autograd, SubNegatesSecond) {
  auto x = leaf({1, 2});
  auto y = leaf({3, 4});
  ag::sum(ag::sub(x, y)).backward();
  EXPECT_EQ(x.grad()[0], 1.0);
  EXPECT_EQ(y.grad()[0], -1.0);
}

TEST(Autograd, MulUsesOtherValue) {
  auto x = leaf({2, 3});
  auto y = leaf({5, 7});
  ag::sum(ag::mul(x, y)).backward();
  EXPECT_EQ(x.grad()[0], 5.0);
  EXPECT_EQ(x.grad()[1], 7.0);
  EXPECT_EQ(y.grad()[0], 2.0);
}

TEST(Autograd, MulScalarScalesGrad) {
  auto x = leaf({1, 1});
  ag::sum(ag::mul_scalar(x, -3.0)).backward();
  EXPECT_EQ(x.grad()[0], -3.0);
}

TEST(Autograd, DiamondGraphAccumulates) {
  // y = sum(x + x): gradient wrt x should be 2.
  auto x = leaf({1});
  ag::sum(ag::add(x, x)).backward();
  EXPECT_EQ(x.grad()[0], 2.0);
}

TEST(Autograd, LeafGradAccumulatesAcrossBackwards) {
  auto x = leaf({1});
  ag::sum(x).backward();
  ag::sum(x).backward();
  EXPECT_EQ(x.grad()[0], 2.0);
  x.zero_grad();
  EXPECT_EQ(x.grad()[0], 0.0);
}

TEST(Autograd, NoGradLeafIsIgnored) {
  auto x = leaf({1, 2}, /*rg=*/false);
  auto y = leaf({3, 4});
  auto out = ag::sum(ag::mul(x, y));
  out.backward();
  EXPECT_EQ(y.grad()[0], 1.0);   // dx values flow
  EXPECT_FALSE(x.has_grad());    // but x gets nothing -- not even a buffer
}

TEST(Autograd, ConstantGraphBackwardIsNoop) {
  auto x = leaf({1}, false);
  auto out = ag::sum(x);
  EXPECT_FALSE(out.requires_grad());
  out.backward();  // should not throw
}

TEST(Autograd, MatmulGradShapes) {
  auto a = ag::Variable(t::Tensor({2, 3}, {1, 2, 3, 4, 5, 6}), true);
  auto b = ag::Variable(t::Tensor({3, 2}, {1, 0, 0, 1, 1, 1}), true);
  ag::sum(ag::matmul(a, b)).backward();
  EXPECT_EQ(a.grad().shape(), (t::Shape{2, 3}));
  EXPECT_EQ(b.grad().shape(), (t::Shape{3, 2}));
}

TEST(Autograd, ReshapeGradMapsBack) {
  auto a = ag::Variable(t::Tensor({2, 2}, {1, 2, 3, 4}), true);
  auto r = ag::reshape(a, {4});
  ag::sum(ag::mul(r, r)).backward();
  EXPECT_EQ(a.grad().at({0, 1}), 4.0);  // d(x^2) = 2x
}

TEST(Autograd, SliceColsValuesAndGrad) {
  auto a = ag::Variable(t::Tensor({2, 3}, {1, 2, 3, 4, 5, 6}), true);
  auto s = ag::slice_cols(a, 1, 3);
  EXPECT_EQ(s.value().at({0, 0}), 2.0);
  EXPECT_EQ(s.value().at({1, 1}), 6.0);
  ag::sum(s).backward();
  EXPECT_EQ(a.grad().at({0, 0}), 0.0);
  EXPECT_EQ(a.grad().at({0, 1}), 1.0);
  EXPECT_EQ(a.grad().at({1, 2}), 1.0);
}

TEST(Autograd, SliceColsBadRangeThrows) {
  auto a = ag::Variable(t::Tensor({2, 3}), true);
  EXPECT_THROW(ag::slice_cols(a, 2, 2), std::invalid_argument);
  EXPECT_THROW(ag::slice_cols(a, 0, 4), std::invalid_argument);
}

TEST(Autograd, ConcatColsRoundTrip) {
  auto a = ag::Variable(t::Tensor({2, 1}, {1, 3}), true);
  auto b = ag::Variable(t::Tensor({2, 2}, {4, 5, 6, 7}), true);
  auto c = ag::concat_cols({a, b});
  EXPECT_EQ(c.value().shape(), (t::Shape{2, 3}));
  EXPECT_EQ(c.value().at({0, 1}), 4.0);
  EXPECT_EQ(c.value().at({1, 0}), 3.0);
  ag::sum(c).backward();
  EXPECT_EQ(a.grad().at({1, 0}), 1.0);
  EXPECT_EQ(b.grad().at({0, 1}), 1.0);
}

TEST(Autograd, TransposeGrad) {
  auto a = ag::Variable(t::Tensor({2, 3}, {1, 2, 3, 4, 5, 6}), true);
  auto at = ag::transpose(a);
  EXPECT_EQ(at.value().shape(), (t::Shape{3, 2}));
  ag::sum(ag::mul(at, at)).backward();
  EXPECT_EQ(a.grad().at({1, 2}), 12.0);  // 2x with x = 6
}

TEST(Autograd, SoftmaxCrossEntropyMatchesManual) {
  // Uniform logits: loss = log(C).
  auto a = ag::Variable(t::Tensor({1, 4}), true);
  auto loss = ag::softmax_cross_entropy(a, {2});
  EXPECT_NEAR(loss.value().item(), std::log(4.0), 1e-12);
  loss.backward();
  // grad = (p - onehot)/B: p = 1/4 everywhere.
  EXPECT_NEAR(a.grad().at({0, 0}), 0.25, 1e-12);
  EXPECT_NEAR(a.grad().at({0, 2}), -0.75, 1e-12);
}

TEST(Autograd, SoftmaxCrossEntropyLabelChecks) {
  auto a = ag::Variable(t::Tensor({2, 3}), true);
  EXPECT_THROW(ag::softmax_cross_entropy(a, {0}), std::invalid_argument);
  EXPECT_THROW(ag::softmax_cross_entropy(a, {0, 3}), std::out_of_range);
}

TEST(Autograd, SoftmaxCrossEntropyIsStableForHugeLogits) {
  auto a = ag::Variable(t::Tensor({1, 2}, {1000.0, 0.0}), true);
  auto loss = ag::softmax_cross_entropy(a, {0});
  EXPECT_NEAR(loss.value().item(), 0.0, 1e-9);
}

// Rows far below any fixed starting max, and rows whose magnitude swallows
// log z: a uniform row is log C and (1/C - onehot) whatever its level.
TEST(Autograd, SoftmaxCrossEntropyHandlesRowsOfAnyMagnitude) {
  for (const double level : {-2e300, -1e300, -1e17, 1e17, 2e300}) {
    auto a = ag::Variable(t::Tensor({1, 3}, {level, level, level}), true);
    auto loss = ag::softmax_cross_entropy(a, {1});
    EXPECT_NEAR(loss.value().item(), std::log(3.0), 1e-15) << level;
    loss.backward();
    EXPECT_NEAR(a.grad().at({0, 0}), 1.0 / 3.0, 1e-15) << level;
    EXPECT_NEAR(a.grad().at({0, 1}), -2.0 / 3.0, 1e-15) << level;
    EXPECT_NEAR(a.grad().at({0, 2}), 1.0 / 3.0, 1e-15) << level;
  }
  // A row with no ties at such a level is exact either way.
  auto a = ag::Variable(t::Tensor({1, 2}, {-2e300, -3e300}), true);
  EXPECT_EQ(ag::softmax_cross_entropy(a, {1}).value().item(), 1e300);
}

TEST(Autograd, EmbeddingLookupAndScatter) {
  auto w = ag::Variable(t::Tensor({3, 2}, {0, 1, 10, 11, 20, 21}), true);
  auto e = ag::embedding(w, {2, 0, 2});
  EXPECT_EQ(e.value().shape(), (t::Shape{3, 2}));
  EXPECT_EQ(e.value().at({0, 1}), 21.0);
  ag::sum(e).backward();
  EXPECT_EQ(w.grad().at({2, 0}), 2.0);  // index 2 used twice
  EXPECT_EQ(w.grad().at({1, 0}), 0.0);
  EXPECT_EQ(w.grad().at({0, 1}), 1.0);
}

TEST(Autograd, EmbeddingIndexOutOfRangeThrows) {
  auto w = ag::Variable(t::Tensor({3, 2}), true);
  EXPECT_THROW(ag::embedding(w, {3}), std::out_of_range);
}

TEST(Autograd, Conv2dIdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  auto x = ag::Variable(t::Tensor({1, 1, 2, 2}, {1, 2, 3, 4}), true);
  auto w = ag::Variable(t::Tensor({1, 1, 1, 1}, {1}), true);
  auto b = ag::Variable(t::Tensor({1}), true);
  auto y = ag::conv2d(x, w, b, 1, 0);
  EXPECT_TRUE(t::allclose(y.value(), x.value()));
  ag::sum(y).backward();
  EXPECT_EQ(w.grad()[0], 10.0);  // sum of inputs
  EXPECT_EQ(b.grad()[0], 4.0);   // output count
}

TEST(Autograd, Conv2dOutputShape) {
  auto x = ag::Variable(t::Tensor({2, 3, 8, 8}), true);
  auto w = ag::Variable(t::Tensor({5, 3, 3, 3}), true);
  auto b = ag::Variable(t::Tensor({5}), true);
  EXPECT_EQ(ag::conv2d(x, w, b, 1, 1).value().shape(), (t::Shape{2, 5, 8, 8}));
  EXPECT_EQ(ag::conv2d(x, w, b, 2, 1).value().shape(), (t::Shape{2, 5, 4, 4}));
}

TEST(Autograd, Conv2dRejectsBadShapes) {
  auto x = ag::Variable(t::Tensor({1, 2, 4, 4}), true);
  auto w = ag::Variable(t::Tensor({1, 3, 3, 3}), true);  // channel mismatch
  auto b = ag::Variable(t::Tensor({1}), true);
  EXPECT_THROW(ag::conv2d(x, w, b, 1, 1), std::invalid_argument);
}

TEST(Autograd, GlobalAvgPool) {
  auto x = ag::Variable(t::Tensor({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40}), true);
  auto y = ag::global_avg_pool(x);
  EXPECT_EQ(y.value().shape(), (t::Shape{1, 2}));
  EXPECT_NEAR(y.value().at({0, 0}), 2.5, 1e-12);
  EXPECT_NEAR(y.value().at({0, 1}), 25.0, 1e-12);
  ag::sum(y).backward();
  EXPECT_NEAR(x.grad()[0], 0.25, 1e-12);
}

TEST(Autograd, ActivationValues) {
  auto x = leaf({-1.0, 0.0, 2.0});
  EXPECT_TRUE(t::allclose(ag::relu(x).value(), t::Tensor({3}, {0, 0, 2})));
  EXPECT_NEAR(ag::sigmoid(leaf({0.0})).value()[0], 0.5, 1e-12);
  EXPECT_NEAR(ag::tanh(leaf({0.0})).value()[0], 0.0, 1e-12);
}
