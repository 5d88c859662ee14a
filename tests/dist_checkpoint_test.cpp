// Checkpoint durability suite (dist/checkpoint.*, DESIGN.md §14).
//
// Pins three properties of master checkpoint/restore:
//   1. A disk round trip is BITWISE lossless: a fresh server restored
//      from a checkpoint continues the closed-loop YellowFin trajectory
//      EXPECT_EQ-identically to the server that wrote it -- values,
//      shard versions/histories, tuner EWMAs, and optimizer state all
//      survive.
//   2. Reject-and-fall-back: truncated or bit-flipped checkpoint files
//      are detected (checksum/length validation BEFORE any state is
//      touched) and restore falls back to the next older valid file.
//   3. The steady-state write path is allocation-bounded: this binary
//      replaces global operator new/delete with counting versions (the
//      alloc_count_test idiom), and a warm Checkpointer::write performs
//      zero heap allocations.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "async/param_server.hpp"
#include "core/alloc_count.hpp"
#include "dist/checkpoint.hpp"
#include "dist/wire.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

// ---------------------------------------------------------------------------
// Counting allocator (test-binary-only; see tests/alloc_count_test.cpp).
// ---------------------------------------------------------------------------

namespace {

void* counted_alloc(std::size_t size) {
  yf::core::detail::note_alloc();
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  yf::core::detail::note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, size ? size : 1) != 0) {
    return nullptr;
  }
  return p;
}

[[gnu::noinline]] void counted_free(void* p) {
  if (p == nullptr) return;
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align))) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }

// ---------------------------------------------------------------------------

namespace ag = yf::autograd;
namespace async = yf::async;
namespace dist = yf::dist;
namespace t = yf::tensor;

namespace {

const std::vector<t::Shape> kShapes = {{5, 3}, {8}, {2, 6}, {1}};  // 36 scalars

std::vector<ag::Variable> make_params(std::uint64_t seed) {
  t::Rng rng(seed);
  std::vector<ag::Variable> params;
  for (const auto& s : kShapes) params.emplace_back(rng.normal_tensor(s), true);
  return params;
}

std::vector<double> flat_values(const std::vector<ag::Variable>& params) {
  std::vector<double> out;
  for (const auto& p : params) {
    const auto v = p.value().data();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

struct Rig {
  explicit Rig(std::uint64_t seed = 77) : params(make_params(seed)) {
    yf::tuner::YellowFinOptions yopts;
    yopts.beta = 0.99;
    opt = std::make_shared<yf::tuner::YellowFin>(params, yopts);
    async::ParamServerOptions sopts;
    sopts.shards = 4;
    sopts.closed_loop = true;
    server = std::make_unique<async::ShardedParamServer>(opt, sopts);
  }
  std::vector<ag::Variable> params;
  std::shared_ptr<yf::tuner::YellowFin> opt;
  std::unique_ptr<async::ShardedParamServer> server;
};

/// One deterministic closed-loop round: pull, noisy-quadratic gradient
/// from `rng`, push. The same rng state on two servers with the same
/// internal state must produce bitwise-identical ApplyStats forever.
async::ApplyStats one_step(async::ShardedParamServer& server, t::Rng& rng,
                           std::vector<double>& buf, async::PullTicket& ticket) {
  server.pull(buf, ticket);
  for (auto& v : buf) v = 1.3 * v + 0.01 * rng.normal();
  return server.push(buf, ticket);
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/yf-ckpt-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void remove_tree(const std::string& dir) {
  const std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] const int rc = std::system(cmd.c_str());
}

std::string checkpoint_name(const std::string& dir, long long index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ckpt-%020lld.yfck", index);
  return dir + "/" + buf;
}

template <typename F>
std::uint64_t allocations_during(F&& f) {
  const auto before = yf::core::heap_alloc_count();
  f();
  return yf::core::heap_alloc_count() - before;
}

}  // namespace

TEST(PushLedger, StateRoundTripIsLossless) {
  dist::PushLedger a;
  a.next_worker_id = 7;
  a.entries[1] = {12, {.update_index = 40,
                       .mu_hat_total = std::nullopt,
                       .applied_momentum = 0.5,
                       .target_momentum = 0.6}};
  a.entries[3] = {99, {.update_index = 44,
                       .mu_hat_total = std::nullopt,
                       .applied_momentum = 0.25,
                       .target_momentum = 0.3}};
  a.entries[3].reply.mu_hat_total = 0.125;

  std::vector<std::byte> bytes;
  yf::core::StateWriter w(bytes);
  a.save_state(w);

  dist::PushLedger b;
  yf::core::StateReader r(bytes);
  b.load_state(r);
  r.expect_end();

  EXPECT_EQ(b.next_worker_id, 7u);
  ASSERT_EQ(b.entries.size(), 2u);
  EXPECT_EQ(b.entries[1].last_seq, 12u);
  EXPECT_EQ(b.entries[1].reply.update_index, 40);
  EXPECT_EQ(b.entries[3].last_seq, 99u);
  ASSERT_TRUE(b.entries[3].reply.mu_hat_total.has_value());
  EXPECT_EQ(*b.entries[3].reply.mu_hat_total, 0.125);
  EXPECT_EQ(b.entries[3].reply.applied_momentum, 0.25);
}

// Checkpoint state bytes fail as checkpoint errors: the state codec shares
// its byte layout with the wire payload codec, but a torn snapshot must
// raise core::StateError (restore's skip-this-candidate signal), never
// dist::WireError.
TEST(Checkpoint, StateReaderUnderrunAndTrailingBytesThrowStateError) {
  std::vector<std::byte> buf;
  yf::core::StateWriter out(buf);
  out.u32(7);
  yf::core::StateReader short_read(buf);
  EXPECT_THROW(short_read.u64(), yf::core::StateError);  // 4 bytes can't make a u64
  yf::core::StateReader trailing(buf);
  trailing.u8();
  EXPECT_THROW(trailing.expect_end(), yf::core::StateError);
  std::vector<double> span(2);
  yf::core::StateReader short_span(buf);
  EXPECT_THROW(short_span.f64_span(span), yf::core::StateError);
}

// The durability headline: train, checkpoint, restore into a FRESH
// server, keep training both -- every subsequent step is bit-identical.
TEST(Checkpoint, DiskRoundTripContinuesBitIdentically) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  Rig a;
  dist::PushLedger ledger_a;
  ledger_a.next_worker_id = 3;
  ledger_a.entries[2] = {17, {.update_index = 9,
                              .mu_hat_total = std::nullopt,
                              .applied_momentum = 0.4,
                              .target_momentum = 0.5}};

  t::Rng rng_a(5);
  std::vector<double> buf(static_cast<std::size_t>(a.server->size()));
  async::PullTicket ticket;
  for (int i = 0; i < 10; ++i) one_step(*a.server, rng_a, buf, ticket);

  dist::Checkpointer ckpt(dir);
  ckpt.write(*a.server, ledger_a, a.server->updates());

  Rig b;  // same geometry, freshly initialized -- all state must come off disk
  dist::PushLedger ledger_b;
  const auto restored = dist::restore_latest(dir, *b.server, ledger_b);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, 10);
  EXPECT_EQ(ledger_b.next_worker_id, 3u);
  EXPECT_EQ(ledger_b.entries[2].last_seq, 17u);

  // Immediately identical...
  const auto va = flat_values(a.params);
  const auto vb = flat_values(b.params);
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(va[i]), std::bit_cast<std::uint64_t>(vb[i]))
        << "restored values diverge at flat index " << i;
  }

  // ...and identical under continued closed-loop training (the tuner
  // EWMAs, curvature window, and optimizer velocity all restored).
  t::Rng rng_b = rng_a;  // same future gradient noise for both
  std::vector<double> buf_b(buf.size());
  async::PullTicket ticket_b;
  for (int i = 0; i < 10; ++i) {
    const auto sa = one_step(*a.server, rng_a, buf, ticket);
    const auto sb = one_step(*b.server, rng_b, buf_b, ticket_b);
    EXPECT_EQ(sa.update_index, sb.update_index);
    EXPECT_EQ(sa.applied_momentum, sb.applied_momentum);
    EXPECT_EQ(sa.target_momentum, sb.target_momentum);
    EXPECT_EQ(sa.mu_hat_total.has_value(), sb.mu_hat_total.has_value());
    if (sa.mu_hat_total && sb.mu_hat_total) {
      EXPECT_EQ(*sa.mu_hat_total, *sb.mu_hat_total);
    }
  }
  const auto fa = flat_values(a.params);
  const auto fb = flat_values(b.params);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fa[i]), std::bit_cast<std::uint64_t>(fb[i]))
        << "continued values diverge at flat index " << i;
  }

  remove_tree(dir);
}

TEST(Checkpoint, TruncatedOrCorruptedFilesFallBackToOlderValid) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  Rig a;
  dist::PushLedger ledger;
  t::Rng rng(5);
  std::vector<double> buf(static_cast<std::size_t>(a.server->size()));
  async::PullTicket ticket;
  dist::Checkpointer ckpt(dir, /*keep=*/4);

  for (int i = 0; i < 5; ++i) one_step(*a.server, rng, buf, ticket);
  ckpt.write(*a.server, ledger, 5);
  for (int i = 0; i < 5; ++i) one_step(*a.server, rng, buf, ticket);
  ckpt.write(*a.server, ledger, 10);
  for (int i = 0; i < 5; ++i) one_step(*a.server, rng, buf, ticket);
  ckpt.write(*a.server, ledger, 15);

  // Newest (15): bit-flip one payload byte -> checksum mismatch.
  {
    const std::string path = checkpoint_name(dir, 15);
    const int fd = ::open(path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    char byte = 0;
    ASSERT_EQ(::pread(fd, &byte, 1, 64), 1);
    byte = static_cast<char>(byte ^ 0x20);
    ASSERT_EQ(::pwrite(fd, &byte, 1, 64), 1);
    ::close(fd);
  }
  // Next (10): truncate mid-payload -> payload length mismatch.
  ASSERT_EQ(::truncate(checkpoint_name(dir, 10).c_str(), 40), 0);

  EXPECT_THROW(dist::load_checkpoint(checkpoint_name(dir, 15), *a.server, ledger),
               dist::CheckpointError);
  EXPECT_THROW(dist::load_checkpoint(checkpoint_name(dir, 10), *a.server, ledger),
               dist::CheckpointError);

  // restore_latest skips both invalid candidates and lands on 5.
  Rig b;
  dist::PushLedger ledger_b;
  const auto restored = dist::restore_latest(dir, *b.server, ledger_b);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, 5);

  remove_tree(dir);
}

TEST(Checkpoint, RestoreLatestIgnoresTmpLeftoversAndGarbageNames) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  Rig a;
  dist::PushLedger ledger;
  dist::Checkpointer ckpt(dir);
  ckpt.write(*a.server, ledger, 3);

  // A crash mid-write leaves a stale .tmp; unrelated files share the dir.
  for (const char* name : {"ckpt-00000000000000000009.yfck.tmp", "ckpt-junk.yfck", "notes.txt"}) {
    const std::string path = dir + "/" + name;
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, "junk", 4), 4);
    ::close(fd);
  }

  Rig b;
  dist::PushLedger ledger_b;
  const auto restored = dist::restore_latest(dir, *b.server, ledger_b);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, 3);

  // An empty dir (or one with only garbage) restores nothing.
  const std::string empty = make_temp_dir();
  EXPECT_FALSE(dist::restore_latest(empty, *b.server, ledger_b).has_value());
  remove_tree(empty);
  remove_tree(dir);
}

TEST(Checkpoint, PruneKeepsOnlyTheNewestN) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  Rig a;
  dist::PushLedger ledger;
  dist::Checkpointer ckpt(dir, /*keep=*/2);
  for (long long idx : {2, 4, 6, 8}) ckpt.write(*a.server, ledger, idx);
  EXPECT_EQ(ckpt.written(), 4);

  EXPECT_NE(::access(checkpoint_name(dir, 8).c_str(), F_OK), -1);
  EXPECT_NE(::access(checkpoint_name(dir, 6).c_str(), F_OK), -1);
  EXPECT_EQ(::access(checkpoint_name(dir, 4).c_str(), F_OK), -1);
  EXPECT_EQ(::access(checkpoint_name(dir, 2).c_str(), F_OK), -1);

  remove_tree(dir);
}

// The file header, decoded by hand rather than through the state codec:
// "YFCK", u32 format version, u64 payload length, u64 XXH64 of the
// payload, all little-endian, with the payload at offset 24.
TEST(Checkpoint, HeaderLayoutIsExactlyAsSpecified) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());
  Rig a;
  dist::PushLedger ledger;
  dist::Checkpointer ckpt(dir);
  ckpt.write(*a.server, ledger, 7);

  const std::string path = checkpoint_name(dir, 7);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  std::vector<std::byte> file;
  std::byte chunk[4096];
  for (ssize_t n; (n = ::read(fd, chunk, sizeof(chunk))) > 0;) {
    file.insert(file.end(), chunk, chunk + n);
  }
  ::close(fd);
  ASSERT_GT(file.size(), dist::kCheckpointHeaderBytes);
  ASSERT_EQ(dist::kCheckpointHeaderBytes, 24u);

  const auto le = [&](std::size_t at, std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= std::to_integer<std::uint64_t>(file[at + i]) << (8 * i);
    }
    return v;
  };
  EXPECT_EQ(std::to_integer<char>(file[0]), 'Y');
  EXPECT_EQ(std::to_integer<char>(file[1]), 'F');
  EXPECT_EQ(std::to_integer<char>(file[2]), 'C');
  EXPECT_EQ(std::to_integer<char>(file[3]), 'K');
  EXPECT_EQ(le(4, 4), dist::kCheckpointVersion);
  const auto payload = std::span<const std::byte>(file).subspan(24);
  EXPECT_EQ(le(8, 8), payload.size());
  EXPECT_EQ(le(16, 8), dist::xxh64(payload));
  EXPECT_EQ(le(24, 8), 7u);  // the payload opens with the update index

  remove_tree(dir);
}

TEST(Checkpoint, RejectsMissingDirAndBadKeep) {
  EXPECT_THROW(dist::Checkpointer("/nonexistent/yf-ckpt-dir"), dist::CheckpointError);
  const std::string dir = make_temp_dir();
  EXPECT_THROW(dist::Checkpointer(dir, 0), dist::CheckpointError);
  remove_tree(dir);
}

// The steady-state write path allocates NOTHING: serialization reuses
// warm buffers, paths live on the stack, and the I/O is raw POSIX. (The
// readdir-based prune may malloc inside libc -- malloc is deliberately
// not counted; the pin is on operator new, the lever C++ code actually
// pulls.)
TEST(Checkpoint, SteadyStateWriteIsAllocationFree) {
  const std::string dir = make_temp_dir();
  ASSERT_FALSE(dir.empty());

  Rig a;
  dist::PushLedger ledger;
  ledger.entries[1] = {4, {.update_index = 2,
                           .mu_hat_total = std::nullopt,
                           .applied_momentum = 0.5,
                           .target_momentum = 0.5}};
  t::Rng rng(5);
  std::vector<double> buf(static_cast<std::size_t>(a.server->size()));
  async::PullTicket ticket;
  for (int i = 0; i < 4; ++i) one_step(*a.server, rng, buf, ticket);

  dist::Checkpointer ckpt(dir);
  long long index = 100;
  // Warm-up: the first writes size the payload/file buffers, and the
  // third sees the steady-state directory population (keep + 1 files)
  // that sizes the prune scratch.
  ckpt.write(*a.server, ledger, index++);
  ckpt.write(*a.server, ledger, index++);
  ckpt.write(*a.server, ledger, index++);

  const auto allocs = allocations_during([&] {
    for (int i = 0; i < 3; ++i) ckpt.write(*a.server, ledger, index++);
  });
  EXPECT_EQ(allocs, 0u);

  remove_tree(dir);
}
