#include "core/workspace.hpp"

#include <gtest/gtest.h>

#include "tensor/tensor.hpp"

namespace core = yf::core;
namespace t = yf::tensor;

TEST(Workspace, AcquireShapesAndZeroFills) {
  core::Workspace ws;
  auto a = ws.acquire({2, 3});
  EXPECT_EQ(a.shape(), (t::Shape{2, 3}));
  for (std::int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], 0.0);
  auto b = ws.acquire({5});
  EXPECT_EQ(b.dim(0), 5);
  // Distinct acquisitions never alias.
  a.fill(7.0);
  for (std::int64_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], 0.0);
}

TEST(Workspace, RollbackRecyclesTheSameStorage) {
  core::Workspace ws;
  (void)ws.acquire({4});
  const auto mark = ws.mark();
  auto b = ws.acquire({8});
  b.fill(3.0);
  const double* b_addr = b.data().data();
  ws.rollback(mark);
  auto c = ws.acquire({8});
  // Same window handed out again, and freshly zero-filled.
  EXPECT_EQ(c.data().data(), b_addr);
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c[i], 0.0);
}

TEST(Workspace, HighWaterMarkReuseStopsGrowth) {
  core::Workspace ws;
  std::int64_t cap_after_warmup = 0;
  for (int step = 0; step < 5; ++step) {
    const auto mark = ws.mark();
    for (int i = 0; i < 10; ++i) (void)ws.acquire({64, 3});
    if (step == 0) cap_after_warmup = ws.capacity();
    ws.rollback(mark);
  }
  // Identical demand after warm-up is served from existing blocks.
  EXPECT_EQ(ws.capacity(), cap_after_warmup);
  EXPECT_EQ(ws.held(), 0);
  EXPECT_GE(ws.high_water(), 10 * 64 * 3);
}

TEST(Workspace, GrowsAcrossBlocksWhenDemandRises) {
  core::Workspace ws(16);
  const auto blocks0 = ws.block_count();
  (void)ws.acquire({100000});  // far beyond the initial block
  EXPECT_GT(ws.block_count(), blocks0);
  EXPECT_GE(ws.capacity(), 100000);
}

TEST(Workspace, GrowthPastTheCapAddsCappedBlocks) {
  // A tape-sized warm-up demand of 200k doubles, in acquisitions of 1000.
  // Doubling stops at 32768-double (256 KB) blocks, so the unused tail
  // stays below one such block; uncapped doubling would end on a
  // 131072-double block with over 62k doubles unused.
  constexpr std::int64_t kCappedBlock = 32768;
  core::Workspace ws;
  std::int64_t cap_after_warmup = 0;
  for (int step = 0; step < 4; ++step) {
    const auto mark = ws.mark();
    for (int i = 0; i < 200; ++i) (void)ws.acquire_span(1000);
    if (step == 0) cap_after_warmup = ws.capacity();
    ws.rollback(mark);
  }
  EXPECT_EQ(ws.high_water(), 200000);
  EXPECT_LT(ws.capacity() - ws.high_water(), kCappedBlock);
  EXPECT_EQ(ws.capacity(), cap_after_warmup) << "capacity must not grow after warm-up";
}

TEST(Workspace, TensorsOutliveTheWorkspace) {
  t::Tensor survivor;
  {
    core::Workspace ws;
    survivor = ws.acquire({3});
    survivor.fill(2.5);
  }
  EXPECT_EQ(survivor[2], 2.5);  // storage is shared, not owned by ws
}

TEST(Workspace, RollbackValidation) {
  core::Workspace ws;
  const auto mark = ws.mark();
  (void)ws.acquire({4});
  core::Workspace::Marker bogus = mark;
  bogus.held = 1000;
  EXPECT_THROW(ws.rollback(bogus), std::invalid_argument);
}
