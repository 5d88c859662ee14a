#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "core/kernels/backend.hpp"
#include "core/kernels/kernel_table.hpp"
#include "core/parallel.hpp"

namespace core = yf::core;

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

/// Independent reimplementation of the canonical reduction order
/// (kernel_table.hpp): 8 lanes filled round-robin, tail into lanes
/// 0..tail-1, pairwise lane combine. Reduction results must match this
/// bit-for-bit on every backend.
template <typename Term>
double ref_lane_reduce(std::size_t n, Term term) {
  constexpr std::size_t kLanes = 8;
  double acc[kLanes] = {};
  const std::size_t nb = n - n % kLanes;
  for (std::size_t i = 0; i < nb; i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) acc[l] += term(i + l);
  }
  for (std::size_t l = 0; l + nb < n; ++l) acc[l] += term(nb + l);
  const double l0 = acc[0] + acc[4], l1 = acc[1] + acc[5];
  const double l2 = acc[2] + acc[6], l3 = acc[3] + acc[7];
  return (l0 + l2) + (l1 + l3);
}

/// Distance in representable doubles between a and b: 0 when both are
/// NaN or bitwise equal, and for subnormals it counts subnormal ulps.
std::int64_t ulp_distance(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) ? 0 : std::numeric_limits<std::int64_t>::max();
  }
  const auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

using SpanUnary = void (*)(std::span<double>, std::span<const double>);

/// f over x in one span call: 8-blocks take the vector path, the tail
/// the scalar reference.
std::vector<double> run_unary(SpanUnary f, const std::vector<double>& x) {
  std::vector<double> y(x.size());
  f(y, x);
  return y;
}

}  // namespace

TEST(ParallelFor, CoversRangeExactlyOnce) {
  core::ThreadPool::instance().set_fanout(4);
  const std::int64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  // grain 1 forces the maximum chunk count: every worker gets a slice.
  core::parallel_for(n, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (std::int64_t i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
}

TEST(ParallelFor, InlineBelowGrain) {
  std::vector<int> order;
  core::parallel_for(10, 100, [&](std::int64_t lo, std::int64_t hi) {
    // Single inline chunk: safe to touch unsynchronized state.
    for (std::int64_t i = lo; i < hi; ++i) order.push_back(static_cast<int>(i));
  });
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelFor, PropagatesExceptions) {
  core::ThreadPool::instance().set_fanout(4);
  EXPECT_THROW(core::parallel_for(100000, 1,
                                  [&](std::int64_t lo, std::int64_t) {
                                    if (lo > 0) throw std::runtime_error("worker boom");
                                  }),
               std::runtime_error);
}

TEST(Kernels, MapMatchesSerialAboveGrain) {
  // Big enough that core::map dispatches chunks to the pool.
  const auto n = static_cast<std::size_t>(core::kDefaultGrain * 4 + 37);
  core::ThreadPool::instance().set_fanout(4);
  const auto src = random_vec(n, 1);
  std::vector<double> dst(n, 0.0);
  core::map(dst, src, [](double x) { return std::tanh(x) + 0.5 * x; });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(dst[i], std::tanh(src[i]) + 0.5 * src[i]) << i;
  }
}

TEST(Kernels, AxpyMatchesNaive) {
  const std::size_t n = 1000;
  auto y = random_vec(n, 2);
  const auto x = random_vec(n, 3);
  auto expect = y;
  for (std::size_t i = 0; i < n; ++i) expect[i] += -0.37 * x[i];
  core::axpy(y, x, -0.37);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y[i], expect[i]);
}

TEST(Kernels, ReductionsFollowCanonicalLaneOrder) {
  // Re-pinned for the SIMD backend refactor: reductions follow the fixed
  // 8-lane blocked order on every backend (previously strict
  // left-to-right). Bitwise against an independent reimplementation of
  // the canonical order, and close to the naive sequential sum.
  const std::size_t n = 4097;
  const auto a = random_vec(n, 4);
  const auto b = random_vec(n, 5);
  EXPECT_EQ(core::sum(a), ref_lane_reduce(n, [&](std::size_t i) { return a[i]; }));
  EXPECT_EQ(core::squared_norm(a), ref_lane_reduce(n, [&](std::size_t i) { return a[i] * a[i]; }));
  EXPECT_EQ(core::dot(a, b), ref_lane_reduce(n, [&](std::size_t i) { return a[i] * b[i]; }));
  double s = 0.0, sq = 0.0, d = 0.0, ma = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += a[i];
    sq += a[i] * a[i];
    d += a[i] * b[i];
    ma = std::max(ma, std::abs(a[i]));
  }
  EXPECT_NEAR(core::sum(a), s, 1e-9 * n);
  EXPECT_NEAR(core::squared_norm(a), sq, 1e-9 * sq);
  EXPECT_NEAR(core::dot(a, b), d, 1e-9 * n);
  EXPECT_EQ(core::max_abs(a), ma);  // max is order-independent: still exact
}

TEST(Kernels, ReductionTailHandling) {
  // Tail elements (n mod 8) fold into lanes 0..tail-1 before the
  // combine; cover n below, at, and straddling the lane width.
  for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 4096u, 4103u}) {
    const auto a = random_vec(n, static_cast<std::uint32_t>(40 + n));
    const auto b = random_vec(n, static_cast<std::uint32_t>(80 + n));
    EXPECT_EQ(core::sum(a), ref_lane_reduce(n, [&](std::size_t i) { return a[i]; })) << n;
    EXPECT_EQ(core::squared_norm(a), ref_lane_reduce(n, [&](std::size_t i) { return a[i] * a[i]; }))
        << n;
    EXPECT_EQ(core::dot(a, b), ref_lane_reduce(n, [&](std::size_t i) { return a[i] * b[i]; }))
        << n;
    const double inv1 = 1.7, inv2 = 0.9;
    auto m2 = random_vec(n, static_cast<std::uint32_t>(120 + n));
    for (auto& x : m2) x = std::abs(x) + 1.0;
    const double expected = ref_lane_reduce(n, [&](std::size_t i) {
      const double m = a[i] * inv1;
      return m2[i] * inv2 - m * m;
    });
    EXPECT_EQ(core::debiased_variance_sum(a, m2, inv1, inv2), expected) << n;
  }
}

TEST(Kernels, ReductionDeterministicAcrossWorkerCounts) {
  // Reductions are sequential by contract: growing the pool must not
  // change a single bit of the result, on any table.
  const auto n = static_cast<std::size_t>(core::kDefaultGrain * 8);
  const auto a = random_vec(n, 6);
  const double before = core::squared_norm(a);
  core::ThreadPool::instance().set_fanout(8);
  EXPECT_EQ(core::squared_norm(a), before);
  for (const auto& table : core::detail::runnable_tables()) {
    EXPECT_EQ(with_table(table, [&] { return core::squared_norm(a); }), before) << table.name;
  }
}

TEST(Kernels, EwmaUpdateMatchesTwoStepForm) {
  const std::size_t n = 512;
  const double beta = 0.97;
  auto avg = random_vec(n, 7);
  const auto x = random_vec(n, 8);
  auto expect = avg;
  for (std::size_t i = 0; i < n; ++i) {
    expect[i] = expect[i] * beta;
    expect[i] += (1.0 - beta) * x[i];
  }
  core::ewma_update(avg, x, beta);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(avg[i], expect[i]);
}

TEST(Kernels, FusedMomentsMatchSeparateSweeps) {
  const std::size_t n = 2048;
  const double beta = 0.995;
  auto m1 = random_vec(n, 9);
  auto m2 = random_vec(n, 10);
  const auto g = random_vec(n, 11);
  auto e1 = m1, e2 = m2;
  // Reference: the historical square() temporary plus two EWMA sweeps.
  std::vector<double> g2(n);
  for (std::size_t i = 0; i < n; ++i) g2[i] = g[i] * g[i];
  core::ewma_update(e1, g, beta);
  core::ewma_update(e2, g2, beta);
  core::ewma_update_moments(m1, m2, g, beta);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(m1[i], e1[i]);
    EXPECT_EQ(m2[i], e2[i]);
  }
}

TEST(Kernels, ClipScaleOnlyAboveThreshold) {
  std::vector<double> v = {3.0, 4.0};
  EXPECT_NEAR(core::clip_scale(v, 10.0), 5.0, 1e-12);
  EXPECT_EQ(v[0], 3.0);  // untouched below threshold
  EXPECT_NEAR(core::clip_scale(v, 1.0), 5.0, 1e-12);
  EXPECT_NEAR(std::sqrt(core::squared_norm(v)), 1.0, 1e-12);
  EXPECT_THROW(core::clip_scale(v, 0.0), std::invalid_argument);
}

TEST(Kernels, MomentumStepMatchesThreePassReference) {
  const std::size_t n = 777;
  const double lr = 0.03, mu = 0.9;
  for (bool nesterov : {false, true}) {
    auto x = random_vec(n, 12);
    auto v = random_vec(n, 13);
    const auto g = random_vec(n, 14);
    auto ex = x, ev = v;
    // Reference: the historical per-tensor sequence (mul_, add_, add_).
    for (std::size_t i = 0; i < n; ++i) ev[i] *= mu;
    for (std::size_t i = 0; i < n; ++i) ev[i] += -lr * g[i];
    if (nesterov) {
      for (std::size_t i = 0; i < n; ++i) ex[i] += mu * ev[i];
      for (std::size_t i = 0; i < n; ++i) ex[i] += -lr * g[i];
    } else {
      for (std::size_t i = 0; i < n; ++i) ex[i] += ev[i];
    }
    core::momentum_step(x, v, g, lr, mu, nesterov);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x[i], ex[i]) << (nesterov ? "nesterov" : "polyak") << " x@" << i;
      EXPECT_EQ(v[i], ev[i]) << (nesterov ? "nesterov" : "polyak") << " v@" << i;
    }
  }
}

TEST(Kernels, AdamStepMatchesScalarReference) {
  const std::size_t n = 333;
  const double lr = 0.001, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  auto x = random_vec(n, 15);
  auto m = random_vec(n, 16);
  auto v = random_vec(n, 17);
  for (auto& vi : v) vi = std::abs(vi);
  const auto g = random_vec(n, 18);
  const double bc1 = 1.0 - std::pow(b1, 3.0), bc2 = 1.0 - std::pow(b2, 3.0);
  auto ex = x, em = m, ev = v;
  for (std::size_t i = 0; i < n; ++i) {
    em[i] = b1 * em[i] + (1.0 - b1) * g[i];
    ev[i] = b2 * ev[i] + (1.0 - b2) * g[i] * g[i];
    ex[i] -= lr * (em[i] / bc1) / (std::sqrt(ev[i] / bc2) + eps);
  }
  core::adam_step(x, m, v, g, lr, b1, b2, bc1, bc2, eps);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(x[i], ex[i]);
    EXPECT_EQ(m[i], em[i]);
    EXPECT_EQ(v[i], ev[i]);
  }
}

TEST(Kernels, ParallelSweepMatchesInlineSweep) {
  // The fused optimizer sweeps must give identical results whether they
  // run inline or partitioned over the pool.
  const auto n = static_cast<std::size_t>(core::kDefaultGrain * 3 + 11);
  core::ThreadPool::instance().set_fanout(4);
  auto x_par = random_vec(n, 19);
  auto v_par = random_vec(n, 20);
  const auto g = random_vec(n, 21);
  auto x_seq = x_par, v_seq = v_par;
  core::momentum_step(x_par, v_par, g, 0.01, 0.95, false);  // above grain: parallel
  for (std::size_t i = 0; i < n; ++i) {  // inline scalar reference
    v_seq[i] = v_seq[i] * 0.95;
    v_seq[i] += -0.01 * g[i];
    x_seq[i] += v_seq[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(x_par[i], x_seq[i]);
    EXPECT_EQ(v_par[i], v_seq[i]);
  }
}

TEST(Kernels, SizeMismatchThrows) {
  std::vector<double> a(4), b(5);
  EXPECT_THROW(core::axpy(a, b, 1.0), std::invalid_argument);
  EXPECT_THROW(core::dot(a, b), std::invalid_argument);
  EXPECT_THROW(core::ewma_update(a, b, 0.9), std::invalid_argument);
}

TEST(Kernels, TranscendentalsMatchLibmWithinUlps) {
  // Dense sweeps of the active backend against glibc: exp within 1 ulp
  // (counted in subnormal ulps below -708), sigmoid and tanh within 2.
  constexpr int kPoints = 1 << 18;
  const auto sweep = [](double lo, double hi) {
    std::vector<double> x(kPoints);
    for (int i = 0; i < kPoints; ++i) {
      x[static_cast<std::size_t>(i)] = lo + (hi - lo) * (i + 0.5) / kPoints;
    }
    return x;
  };
  const auto expect_within = [](const char* what, SpanUnary f, double (*ref)(double),
                                const std::vector<double>& x, std::int64_t max_ulps) {
    const auto y = run_unary(f, x);
    std::int64_t worst = 0;
    double worst_x = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::int64_t d = ulp_distance(y[i], ref(x[i]));
      if (d > worst) {
        worst = d;
        worst_x = x[i];
      }
    }
    EXPECT_LE(worst, max_ulps) << what << " at x=" << worst_x;
  };
  const auto libm_exp = [](double v) { return std::exp(v); };
  const auto libm_sigmoid = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };
  const auto libm_tanh = [](double v) { return std::tanh(v); };
  expect_within("exp", core::exp, libm_exp, sweep(-708.0, 709.7), 1);
  expect_within("exp subnormal", core::exp, libm_exp, sweep(-745.0, -708.0), 1);
  expect_within("sigmoid", core::sigmoid, libm_sigmoid, sweep(-30.0, 30.0), 2);
  const auto tx = sweep(-40.0, 40.0);
  expect_within("tanh", core::tanh, libm_tanh, tx, 2);
  // Odd symmetry holds bitwise: the kernel works on |x| and ORs the sign.
  std::vector<double> neg(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) neg[i] = -tx[i];
  const auto y = run_unary(core::tanh, tx);
  const auto y_neg = run_unary(core::tanh, neg);
  for (std::size_t i = 0; i < tx.size(); ++i) {
    ASSERT_EQ(bits(y_neg[i]), bits(-y[i])) << "x=" << tx[i];
  }
}

TEST(Kernels, TranscendentalSpecialValuesArePinned) {
  // Each value runs as one full 8-block plus a one-element tail, and all
  // nine results must carry the same bits.
  const auto at = [](SpanUnary f, double x) {
    const auto y = run_unary(f, std::vector<double>(9, x));
    for (const double v : y) EXPECT_EQ(bits(v), bits(y[0])) << "x=" << x;
    return y[0];
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bits(at(core::exp, 0.0)), bits(1.0));
  EXPECT_EQ(bits(at(core::exp, inf)), bits(inf));
  EXPECT_EQ(bits(at(core::exp, -inf)), bits(0.0));
  EXPECT_TRUE(std::isnan(at(core::exp, nan)));
  EXPECT_EQ(bits(at(core::exp, 709.79)), bits(inf));
  EXPECT_EQ(bits(at(core::exp, -746.0)), bits(0.0));
  EXPECT_EQ(bits(at(core::sigmoid, 0.0)), bits(0.5));
  EXPECT_EQ(bits(at(core::sigmoid, 800.0)), bits(1.0));
  EXPECT_EQ(bits(at(core::sigmoid, -800.0)), bits(0.0));
  EXPECT_EQ(bits(at(core::tanh, 0.0)), bits(0.0));
  EXPECT_EQ(bits(at(core::tanh, -0.0)), bits(-0.0));
  EXPECT_EQ(bits(at(core::tanh, 25.0)), bits(1.0));
  EXPECT_EQ(bits(at(core::tanh, -25.0)), bits(-1.0));
  EXPECT_EQ(bits(at(core::tanh, inf)), bits(1.0));
  EXPECT_EQ(bits(at(core::tanh, -inf)), bits(-1.0));
  EXPECT_TRUE(std::isnan(at(core::tanh, nan)));
}

// ---------------------------------------------------------------------------
// Backend dispatch: every runnable table (scalar, avx2, avx512) must agree
// with scalar bit-for-bit on every kernel (elementwise by per-element
// arithmetic identity, reductions by the shared lane-blocked order),
// across vector-width tails.
// ---------------------------------------------------------------------------

TEST(KernelBackend, RunnableTablesStartWithScalarAndIncludeSimd) {
  const auto tables = core::detail::runnable_tables();
  ASSERT_FALSE(tables.empty());
  EXPECT_STREQ(tables.front().name, "scalar");
  EXPECT_EQ(tables.front().table, &core::detail::kScalarKernels);
  // `simd` resolves to the widest runnable table.
  if (core::simd_supported()) {
    ASSERT_GE(tables.size(), 2u);
    EXPECT_STREQ(tables[1].name, "avx2");
    const auto previous = core::active_kernel_backend();
    core::set_kernel_backend(core::KernelBackend::kSimd);
    EXPECT_EQ(&core::detail::active_table(), tables.back().table);
    EXPECT_STREQ(core::active_kernel_table_name(), tables.back().name);
    core::set_kernel_backend(previous);
  } else {
    EXPECT_EQ(tables.size(), 1u);
  }
}

TEST(KernelBackend, StringParsingAndNames) {
  core::KernelBackend b = core::KernelBackend::kSimd;
  EXPECT_TRUE(core::kernel_backend_from_string("scalar", b));
  EXPECT_EQ(b, core::KernelBackend::kScalar);
  EXPECT_TRUE(core::kernel_backend_from_string("simd", b));
  EXPECT_EQ(b, core::KernelBackend::kSimd);
  EXPECT_FALSE(core::kernel_backend_from_string("avx512", b));
  EXPECT_FALSE(core::kernel_backend_from_string("", b));
  EXPECT_STREQ(core::kernel_backend_name(core::KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(core::kernel_backend_name(core::KernelBackend::kSimd), "simd");
}

TEST(KernelBackend, ForcingScalarAlwaysWorks) {
  const auto previous = core::active_kernel_backend();
  core::set_kernel_backend(core::KernelBackend::kScalar);
  EXPECT_EQ(core::active_kernel_backend(), core::KernelBackend::kScalar);
  EXPECT_STREQ(core::active_kernel_backend_name(), "scalar");
  core::set_kernel_backend(previous);
}

TEST(KernelBackend, SimdRequestThrowsWhenUnsupported) {
  if (core::simd_supported()) {
    core::set_kernel_backend(core::KernelBackend::kSimd);  // must not throw
    EXPECT_EQ(core::active_kernel_backend(), core::KernelBackend::kSimd);
    core::set_kernel_backend(core::KernelBackend::kScalar);
  } else {
    EXPECT_THROW(core::set_kernel_backend(core::KernelBackend::kSimd), std::invalid_argument);
  }
}

namespace {

/// Sizes 0..33 give every tail of the 4- and 8-wide vector steps, the
/// 8-wide lane block and the 16-element transcendental block, twice over;
/// 1037 adds a long run of full blocks.
const std::vector<std::size_t> kParitySizes = [] {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 33; ++n) sizes.push_back(n);
  sizes.push_back(1037);
  return sizes;
}();

/// Run `op` (which writes its result into fresh buffers) under every
/// runnable table and expect output bitwise identical to the scalar
/// table's.
template <typename Op>
void expect_backend_parity(const char* what, Op op) {
  const auto tables = core::detail::runnable_tables();
  if (tables.size() < 2) GTEST_SKIP() << "no SIMD kernel table on this machine";
  for (std::size_t n : kParitySizes) {
    const auto scalar_out = with_table(tables.front(), [&] { return op(n); });
    for (std::size_t t = 1; t < tables.size(); ++t) {
      const auto out = with_table(tables[t], [&] { return op(n); });
      ASSERT_EQ(scalar_out.size(), out.size()) << what << " " << tables[t].name << " n=" << n;
      for (std::size_t i = 0; i < scalar_out.size(); ++i) {
        EXPECT_EQ(scalar_out[i], out[i]) << what << " " << tables[t].name << " n=" << n << " @"
                                         << i;
      }
    }
  }
}

}  // namespace

TEST(KernelBackend, ElementwiseParityBitIdentical) {
  expect_backend_parity("fill", [](std::size_t n) {
    std::vector<double> x(n, -1.0);
    core::fill(x, 3.25);
    return x;
  });
  expect_backend_parity("copy", [](std::size_t n) {
    const auto src = random_vec(n, 101);
    std::vector<double> dst(n, 0.0);
    core::copy(dst, src);
    return dst;
  });
  expect_backend_parity("scale", [](std::size_t n) {
    auto x = random_vec(n, 102);
    core::scale(x, -0.731);
    return x;
  });
  expect_backend_parity("axpy", [](std::size_t n) {
    auto y = random_vec(n, 103);
    const auto x = random_vec(n, 104);
    core::axpy(y, x, 0.417);
    return y;
  });
  expect_backend_parity("ewma", [](std::size_t n) {
    auto avg = random_vec(n, 105);
    const auto x = random_vec(n, 106);
    core::ewma_update(avg, x, 0.997);
    return avg;
  });
  expect_backend_parity("ewma_moments", [](std::size_t n) {
    auto m1 = random_vec(n, 107);
    auto m2 = random_vec(n, 108);
    const auto x = random_vec(n, 109);
    core::ewma_update_moments(m1, m2, x, 0.995);
    m1.insert(m1.end(), m2.begin(), m2.end());
    return m1;
  });
  // Transcendentals: normal samples x3 (mostly the vector path), x300
  // (mostly the out-of-range blocks), and x3 with special values mixed
  // in. Compared as bit patterns: NaN != NaN under EXPECT_EQ.
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {
      0.0, -0.0, inf, -inf, std::numeric_limits<double>::quiet_NaN(),             // IEEE
      708.0, -708.0, std::nextafter(708.0, inf), -708.5, 709.79, -745.0, -746.0,  // exp range
      22.0, -22.0, std::nextafter(22.0, inf), 0.625, std::nextafter(0.625, 0.0),  // tanh branches
      1e-300, 5e-324, -1e-10};
  const auto parity = [&](const char* name, SpanUnary f, double scale, bool mix_specials) {
    expect_backend_parity(name, [&](std::size_t n) {
      auto x = random_vec(n, 130);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = mix_specials && i % 7 == 3 ? specials[(i / 7) % std::size(specials)] : scale * x[i];
      }
      std::vector<std::uint64_t> out;
      for (const double y : run_unary(f, x)) out.push_back(bits(y));
      return out;
    });
  };
  const struct {
    const char* name;
    SpanUnary f;
  } unaries[] = {{"exp", core::exp}, {"sigmoid", core::sigmoid}, {"tanh", core::tanh}};
  for (const auto& u : unaries) {
    parity(u.name, u.f, 3.0, false);
    parity(u.name, u.f, 300.0, false);
    parity(u.name, u.f, 3.0, true);
  }
  // One special value at every position of every size through 33 (two
  // 16-element blocks and a tail; the long size is skipped): a lone NaN,
  // infinity or out-of-range lane sends its block, full or tail, to the
  // reference and leaves the others vectorized.
  const double lone[] = {std::numeric_limits<double>::quiet_NaN(), inf, -inf, 709.0, -746.0, 23.0};
  for (const auto& u : unaries) {
    for (const double special : lone) {
      expect_backend_parity(u.name, [&](std::size_t n) {
        std::vector<std::uint64_t> out;
        if (n > 33) return out;
        for (std::size_t pos = 0; pos < n; ++pos) {
          auto x = random_vec(n, 131);
          for (auto& v : x) v *= 3.0;
          x[pos] = special;
          for (const double y : run_unary(u.f, x)) out.push_back(bits(y));
        }
        return out;
      });
    }
  }
}

TEST(KernelBackend, FusedSweepParityBitIdentical) {
  for (bool nesterov : {false, true}) {
    expect_backend_parity(nesterov ? "momentum_nesterov" : "momentum", [&](std::size_t n) {
      auto x = random_vec(n, 110);
      auto v = random_vec(n, 111);
      const auto g = random_vec(n, 112);
      core::momentum_step(x, v, g, 0.03, 0.9, nesterov);
      x.insert(x.end(), v.begin(), v.end());
      return x;
    });
  }
  expect_backend_parity("adam", [](std::size_t n) {
    auto x = random_vec(n, 113);
    auto m = random_vec(n, 114);
    auto v = random_vec(n, 115);
    for (auto& vi : v) vi = std::abs(vi);
    const auto g = random_vec(n, 116);
    core::adam_step(x, m, v, g, 0.001, 0.9, 0.999, 0.271, 0.002996, 1e-8);
    x.insert(x.end(), m.begin(), m.end());
    x.insert(x.end(), v.begin(), v.end());
    return x;
  });
  expect_backend_parity("adagrad", [](std::size_t n) {
    auto x = random_vec(n, 117);
    auto accum = random_vec(n, 118);
    for (auto& a : accum) a = std::abs(a);
    const auto g = random_vec(n, 119);
    core::adagrad_step(x, accum, g, 0.05, 1e-10);
    x.insert(x.end(), accum.begin(), accum.end());
    return x;
  });
  expect_backend_parity("rmsprop", [](std::size_t n) {
    auto x = random_vec(n, 120);
    auto sq = random_vec(n, 121);
    for (auto& s : sq) s = std::abs(s);
    const auto g = random_vec(n, 122);
    core::rmsprop_step(x, sq, g, 0.01, 0.95, 1e-8);
    x.insert(x.end(), sq.begin(), sq.end());
    return x;
  });
}

TEST(KernelBackend, ReductionParityBitIdentical) {
  expect_backend_parity("reductions", [](std::size_t n) {
    const auto a = random_vec(n, 123);
    const auto b = random_vec(n, 124);
    auto m2 = random_vec(n, 125);
    for (auto& x : m2) x = std::abs(x) + 0.5;
    return std::vector<double>{core::sum(a), core::squared_norm(a), core::dot(a, b),
                               core::max_abs(a), core::debiased_variance_sum(a, m2, 1.31, 0.77)};
  });
}

// Matmul backend parity moved to tests/gemm_test.cpp: the row kernel
// became the packed GEMM subsystem (core/gemm.hpp), whose scalar-vs-simd
// bit-identity is pinned there across all three layout variants.

TEST(KernelBackend, MaxAbsNanParity) {
  // std::max(m, NaN) keeps m, so the scalar backend drops NaN terms; the
  // SIMD tables must do the same (maxpd forwards its second operand on
  // NaN, so the running maximum sits in the second slot).
  const auto tables = core::detail::runnable_tables();
  if (tables.size() < 2) GTEST_SKIP() << "no SIMD kernel table on this machine";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cases = {
      {1.0, 2.0, 3.0, nan},
      {nan, nan, nan, nan},
      {nan, -7.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, nan},
      {0.5, nan},
  };
  for (const auto& x : cases) {
    const double scalar_m = with_table(tables.front(), [&] { return core::max_abs(x); });
    for (std::size_t t = 1; t < tables.size(); ++t) {
      const double simd_m = with_table(tables[t], [&] { return core::max_abs(x); });
      EXPECT_EQ(scalar_m, simd_m) << tables[t].name << " n=" << x.size();
      EXPECT_FALSE(std::isnan(simd_m)) << tables[t].name << " n=" << x.size();
    }
  }
}

TEST(KernelBackend, ReductionParityAcrossPoolSizes) {
  // The full determinism matrix: table x fanout must give one value.
  const auto tables = core::detail::runnable_tables();
  if (tables.size() < 2) GTEST_SKIP() << "no SIMD kernel table on this machine";
  const auto n = static_cast<std::size_t>(core::kSimdGrain * 4 + 5);
  const auto a = random_vec(n, 128);
  const double pinned = with_table(tables.front(), [&] { return core::squared_norm(a); });
  for (std::size_t fanout : {1u, 4u, 8u}) {
    core::ThreadPool::instance().set_fanout(fanout);
    for (const auto& table : tables) {
      EXPECT_EQ(with_table(table, [&] { return core::squared_norm(a); }), pinned)
          << table.name << " fanout=" << fanout;
    }
  }
}
