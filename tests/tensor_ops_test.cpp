#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace t = yf::tensor;

namespace {
t::Tensor vec(std::vector<double> v) {
  const auto n = static_cast<std::int64_t>(v.size());
  return t::Tensor({n}, std::move(v));
}
}  // namespace

TEST(TensorOps, UnaryMath) {
  EXPECT_TRUE(t::allclose(t::square(vec({-1, 0, 2})), vec({1, 0, 4})));
}

TEST(TensorOps, Reductions) {
  auto a = vec({1, -2, 3});
  EXPECT_EQ(t::sum(a), 2.0);
  EXPECT_NEAR(t::mean(a), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(t::max(a), 3.0);
  EXPECT_EQ(t::min(a), -2.0);
  EXPECT_NEAR(t::norm(a), std::sqrt(14.0), 1e-12);
  EXPECT_EQ(t::dot(a, vec({1, 1, 1})), 2.0);
}

TEST(TensorOps, ReductionsRejectEmpty) {
  t::Tensor empty({0});
  EXPECT_THROW(t::mean(empty), std::invalid_argument);
  EXPECT_THROW(t::max(empty), std::invalid_argument);
  EXPECT_THROW(t::min(empty), std::invalid_argument);
}

TEST(TensorOps, MatmulKnownValues) {
  t::Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  t::Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  auto c = t::matmul(a, b);
  EXPECT_EQ(c.shape(), (t::Shape{2, 2}));
  EXPECT_EQ(c.at({0, 0}), 58.0);
  EXPECT_EQ(c.at({0, 1}), 64.0);
  EXPECT_EQ(c.at({1, 0}), 139.0);
  EXPECT_EQ(c.at({1, 1}), 154.0);
}

TEST(TensorOps, MatmulInnerMismatchThrows) {
  EXPECT_THROW(t::matmul(t::Tensor({2, 3}), t::Tensor({2, 2})), std::invalid_argument);
}

TEST(TensorOps, MatmulRequires2D) {
  EXPECT_THROW(t::matmul(t::Tensor({3}), t::Tensor({3, 2})), std::invalid_argument);
}

TEST(TensorOps, TransposeRoundTrip) {
  t::Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  auto at = t::transpose(a);
  EXPECT_EQ(at.shape(), (t::Shape{3, 2}));
  EXPECT_EQ(at.at({0, 1}), 4.0);
  EXPECT_TRUE(t::allclose(t::transpose(at), a));
}

TEST(TensorOps, MaxAbsDiffAndAllclose) {
  auto a = vec({1.0, 2.0});
  auto b = vec({1.0, 2.0 + 1e-10});
  EXPECT_NEAR(t::max_abs_diff(a, b), 1e-10, 1e-14);
  EXPECT_TRUE(t::allclose(a, b));
  EXPECT_FALSE(t::allclose(a, vec({1.0, 3.0})));
  EXPECT_FALSE(t::allclose(a, vec({1.0})));  // shape mismatch is just false
}
