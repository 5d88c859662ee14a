// Allocation-regression suite: proves the zero-allocation contract of
// the tape/workspace refactor (DESIGN.md §8) by *counting* heap traffic.
//
// This binary replaces the global operator new/delete with counting
// versions that report into core/alloc_count.hpp. After a warm-up step,
// a fixed-shape training step -- forward, backward, optimizer apply --
// must allocate exactly zero times on the sync trainer; for the sharded
// parameter server (whose harness has fixed per-run setup costs) the
// proof is count equality between a short and a long run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>

#include "autograd/ops.hpp"
#include "autograd/tape.hpp"
#include "core/alloc_count.hpp"
#include "core/parallel.hpp"
#include "data/markov_text.hpp"
#include "dist/channel.hpp"
#include "nn/language_model.hpp"
#include "optim/momentum_sgd.hpp"
#include "serve/engine.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "train/trainer.hpp"
#include "tuner/yellowfin.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every variant funnels through malloc/free so the
// counters see all of them. Test-binary-only; the library never replaces
// the global allocator itself.
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
namespace nn = yf::nn;
namespace t = yf::tensor;

namespace {

template <typename F>
std::uint64_t allocations_during(F&& f) {
  const auto before = yf::core::heap_alloc_count();
  f();
  return yf::core::heap_alloc_count() - before;
}

/// Keep every elementwise sweep and matmul inline on the calling thread:
/// pool dispatch enqueues tasks (which allocates) and is pointless for
/// the tiny shapes used here.
void force_inline_parallelism() { yf::core::ThreadPool::instance().set_fanout(1); }

}  // namespace

TEST(AllocCount, CountingAllocatorIsInstalled) {
  // Call the allocation function directly: the compiler may legally elide
  // a paired new-expression/delete ([expr.new]/10), but a direct call to
  // the replaceable ::operator new must happen.
  const auto n = allocations_during([] {
    void* p = ::operator new(16);
    ::operator delete(p);
  });
  EXPECT_GE(n, 1u);
}

TEST(AllocCount, SyncLmTrainStepIsAllocationFreeAfterWarmup) {
  force_inline_parallelism();
  const std::int64_t batch = 4, seq_plus1 = 9, rounds = 8;
  yf::data::MarkovTextConfig dcfg;
  dcfg.vocab = 16;
  dcfg.branching = 2;
  yf::data::MarkovText dataset(dcfg);
  t::Rng data_rng(3);
  // Pre-generated batches: the allocation contract covers the training
  // step, not the (caller-owned) data pipeline.
  std::vector<std::vector<std::int64_t>> batches;
  for (int i = 0; i < 4; ++i) batches.push_back(dataset.sample_batch(batch, seq_plus1, data_rng));

  nn::LanguageModelConfig cfg;
  cfg.vocab = 16;
  cfg.embed_dim = 8;
  cfg.hidden = 12;
  cfg.layers = 2;
  t::Rng model_rng(1);
  nn::LSTMLanguageModel model(cfg, model_rng);
  yf::optim::MomentumSGD opt(model.parameters(), 0.1, 0.9);

  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  double sink = 0.0;
  auto step = [&](int i) {
    tape.begin_step();
    opt.zero_grad();
    const auto& toks = batches[static_cast<std::size_t>(i) % batches.size()];
    auto loss = model.loss(toks, batch, seq_plus1);
    loss.backward();
    opt.step();
    sink += loss.value().item();
  };
  for (int i = 0; i < 3; ++i) step(i);  // warm-up: record + fill caches

  const auto n = allocations_during([&] {
    for (int i = 3; i < 3 + rounds; ++i) step(i);
  });
  EXPECT_EQ(n, 0u) << "steady-state LM train steps must not touch the heap";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(AllocCount, GemmPackingIsAllocationFreeInSteadyState) {
  force_inline_parallelism();
  // Shapes large enough to take the packed GEMM path (packing buffers
  // come from the per-thread workspace): after the first call of the
  // peak shape has sized the high-water mark, every later call -- all
  // three layout variants, plus a tape-driven training step whose
  // pullbacks run NT/TN -- must be heap-free.
  t::Rng rng(23);
  const auto a = rng.normal_tensor({48, 96});
  const auto b = rng.normal_tensor({96, 64});
  const auto bt = rng.normal_tensor({64, 96});
  const auto at = rng.normal_tensor({96, 48});
  t::Tensor out(t::Shape{48, 64});
  auto sweep = [&] {
    t::matmul_into(out, a, b);
    t::matmul_nt_into(out, a, bt);
    t::matmul_tn_into(out, at, b);
  };
  sweep();  // warm-up: pack workspace blocks for the peak shapes
  const auto n = allocations_during([&] {
    for (int i = 0; i < 16; ++i) sweep();
  });
  EXPECT_EQ(n, 0u) << "steady-state GEMM packing must reuse workspace high-water storage";

  // And through the full training step: an autograd quadratic whose
  // matmuls sit above the packed threshold, on a tape.
  ag::Variable w(rng.normal_tensor({96, 48}), /*requires_grad=*/true);
  ag::Variable x(rng.normal_tensor({32, 96}));
  ag::Variable y(rng.normal_tensor({32, 48}));
  yf::optim::MomentumSGD opt({w}, 1e-3, 0.9);
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  double sink = 0.0;
  auto step = [&] {
    tape.begin_step();
    opt.zero_grad();
    auto loss = ag::mean(ag::square(ag::sub(ag::matmul(x, w), y)));
    loss.backward();
    opt.step();
    sink += loss.value().item();
  };
  for (int i = 0; i < 3; ++i) step();
  const auto steps_allocs = allocations_during([&] {
    for (int i = 0; i < 64; ++i) step();
  });
  EXPECT_EQ(steps_allocs, 0u) << "packed-GEMM training steps must not touch the heap after warm-up";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(AllocCount, QuadraticYellowFinStepIsAllocationFreeAfterWarmup) {
  force_inline_parallelism();
  // Tiny least-squares model driven through autograd, optimized by the
  // full YellowFin tuner (curvature window, variance, clipping).
  t::Rng rng(5);
  ag::Variable w(rng.normal_tensor({6, 3}), /*requires_grad=*/true);
  ag::Variable x(rng.normal_tensor({8, 6}));
  ag::Variable y(rng.normal_tensor({8, 3}));
  yf::tuner::YellowFin opt({w});

  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  double sink = 0.0;
  auto step = [&] {
    tape.begin_step();
    opt.zero_grad();
    auto loss = ag::mean(ag::square(ag::sub(ag::matmul(x, w), y)));
    loss.backward();
    opt.step();
    sink += loss.value().item();
  };
  for (int i = 0; i < 3; ++i) step();

  const auto n = allocations_during([&] {
    for (int i = 0; i < 20; ++i) step();
  });
  EXPECT_EQ(n, 0u) << "steady-state YellowFin steps must not touch the heap";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(AllocCount, TrainLoopWithTapeIsAllocationFreePerStep) {
  force_inline_parallelism();
  // train::train allocates its result vectors and records its own tape
  // once per run; per-step freedom shows up as run cost independent of
  // the iteration count.
  t::Rng rng(7);
  ag::Variable w(rng.normal_tensor({4, 2}), /*requires_grad=*/true);
  ag::Variable x(rng.normal_tensor({5, 4}));
  ag::Variable y(rng.normal_tensor({5, 2}));
  yf::optim::MomentumSGD opt({w}, 0.05, 0.9);
  auto grad_fn = [&] {
    auto loss = ag::mean(ag::square(ag::sub(ag::matmul(x, w), y)));
    loss.backward();
    return loss.value().item();
  };
  auto run = [&](std::int64_t iters) {
    yf::train::TrainOptions o;
    o.iterations = iters;
    return allocations_during([&] { (void)yf::train::train(opt, grad_fn, o); });
  };
  (void)run(8);  // warm-up
  const auto short_run = run(16);
  const auto long_run = run(64);
  EXPECT_EQ(short_run, long_run) << "per-run allocations must not scale with iterations";
}

TEST(AllocCount, ServingSteadyStateIsAllocationFree) {
  force_inline_parallelism();
  // Forward-only serving engine (DESIGN.md §11): after the worker has
  // warmed its per-batch-size plans, a served request -- enqueue,
  // coalesce, pinned snapshot forward, scatter, wake -- plus a trainer
  // publish must not touch the heap. Requests use caller-owned stack/
  // preallocated buffers; the worker's logits come from its Workspace.
  yf::nn::LanguageModelConfig cfg;
  cfg.vocab = 12;
  cfg.embed_dim = 6;
  cfg.hidden = 8;
  cfg.layers = 1;
  t::Rng rng(41);
  nn::LSTMLanguageModel model(cfg, rng);
  yf::serve::ServeOptions opts;
  opts.seq_len = 5;
  opts.max_batch = 2;
  opts.max_wait_us = 0;  // single client: no straggler wait
  yf::serve::LMServer server(model, opts);

  std::vector<std::int64_t> tokens(static_cast<std::size_t>(opts.seq_len));
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    tokens[i] = static_cast<std::int64_t>(i) % cfg.vocab;
  }
  std::vector<double> logits(static_cast<std::size_t>(opts.seq_len * cfg.vocab), 0.0);
  double sink = 0.0;
  auto round = [&] {
    (void)server.infer(tokens, logits);
    (void)server.publish();
    sink += logits[0];
  };
  for (int i = 0; i < 4; ++i) round();  // warm-up: plans + packing workspace

  const auto n = allocations_during([&] {
    for (int i = 0; i < 32; ++i) round();
  });
  EXPECT_EQ(n, 0u) << "steady-state serving must not touch the heap";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(AllocCount, ShardedServerWithTwoWorkersIsAllocationFreePerStep) {
  force_inline_parallelism();
  const std::int64_t dim = 48;
  t::Rng rng(11);
  const t::Tensor target = rng.normal_tensor({dim});

  ag::Variable master(rng.normal_tensor({dim}), /*requires_grad=*/true);
  std::vector<ag::Variable> master_params = {master};
  auto opt = std::make_shared<yf::optim::MomentumSGD>(master_params, 0.05, 0.9);
  yf::async::ParamServerOptions server_opts;
  server_opts.shards = 3;
  server_opts.measure = true;
  server_opts.history = 8;
  yf::async::ShardedParamServer server(opt, server_opts);

  // Two workers computing a deterministic quadratic gradient on their own
  // replicas (gradient buffers are pre-materialized by the replica arena).
  std::vector<yf::async::ServerWorker> workers(2);
  std::vector<ag::Variable> replicas;
  for (auto& worker : workers) {
    ag::Variable replica(t::Tensor::zeros({dim}), /*requires_grad=*/true);
    replicas.push_back(replica);
    worker.params = {replica};
    worker.grad_fn = [replica, &target] {
      auto v = replica.value().data();
      auto g = replica.node()->ensure_grad().data();
      double loss = 0.0;
      for (std::size_t i = 0; i < v.size(); ++i) {
        const double d = v[i] - target[static_cast<std::int64_t>(i)];
        g[i] += d;
        loss += 0.5 * d * d;
      }
      return loss;
    };
  }

  auto run = [&](std::int64_t steps) {
    yf::async::ServerRunOptions ro;
    ro.steps_per_worker = steps;
    return allocations_during([&] { (void)yf::async::run_workers(server, workers, ro); });
  };
  (void)run(16);  // warm-up: shard history ring, per-thread scratch, pool
  const auto short_run = run(16);
  const auto long_run = run(64);
  // 2 workers x 48 extra steps: even one allocation per step would add
  // ~96 counts. The tiny slack absorbs scheduling-dependent O(1) churn
  // in the pool's task queue (deque chunk recycling).
  EXPECT_LE(long_run, short_run + 4)
      << "server pull/push/apply must not allocate per step with 2 workers";
}

namespace {

/// Master LM, its sharded server, and two LM worker replicas sharing one
/// fixed batch: the fixture of the worker-harness allocation pins below.
struct LmReplicaCluster {
  static constexpr std::int64_t kBatch = 4, kSeqPlus1 = 7;

  static nn::LanguageModelConfig config() {
    nn::LanguageModelConfig cfg;
    cfg.vocab = 12;
    cfg.embed_dim = 6;
    cfg.hidden = 8;
    cfg.layers = 1;
    return cfg;
  }

  LmReplicaCluster() {
    yf::data::MarkovTextConfig dcfg;
    dcfg.vocab = 12;
    dcfg.branching = 2;
    yf::data::MarkovText dataset(dcfg);
    t::Rng data_rng(13);
    const auto tokens = dataset.sample_batch(kBatch, kSeqPlus1, data_rng);

    t::Rng master_rng(1);
    master = std::make_unique<nn::LSTMLanguageModel>(config(), master_rng);
    auto opt = std::make_shared<yf::optim::MomentumSGD>(master->parameters(), 0.1, 0.9);
    yf::async::ParamServerOptions server_opts;
    server_opts.shards = 2;
    server_opts.history = 8;
    server = std::make_unique<yf::async::ShardedParamServer>(opt, server_opts);

    for (std::uint64_t w = 0; w < 2; ++w) {
      t::Rng replica_rng(100 + w);
      auto model = std::make_shared<nn::LSTMLanguageModel>(config(), replica_rng);
      params.push_back(model->parameters());
      grad_fns.push_back([model, tokens] {
        auto loss = model->loss(tokens, kBatch, kSeqPlus1);
        loss.backward();
        return loss.value().item();
      });
    }
  }

  std::unique_ptr<nn::LSTMLanguageModel> master;
  std::unique_ptr<yf::async::ShardedParamServer> server;
  std::vector<std::vector<ag::Variable>> params;  ///< per replica
  std::vector<std::function<double()>> grad_fns;  ///< per replica
};

}  // namespace

TEST(AllocCount, ServerWorkersWithModelReplicasAndTapes) {
  force_inline_parallelism();
  // Each worker: its own model replica, shared fixed batch; run_workers
  // records each worker body on its own tape.
  LmReplicaCluster cluster;
  std::vector<yf::async::ServerWorker> workers;
  for (std::size_t w = 0; w < cluster.params.size(); ++w) {
    workers.push_back({cluster.params[w], cluster.grad_fns[w]});
  }

  auto run = [&](std::int64_t steps) {
    yf::async::ServerRunOptions ro;
    ro.steps_per_worker = steps;
    return allocations_during([&] { (void)yf::async::run_workers(*cluster.server, workers, ro); });
  };
  (void)run(12);  // warm-up
  const auto short_run = run(12);
  const auto long_run = run(48);
  // Every run starts fresh plain threads (run_workers goes through
  // run_channel_workers), records each worker's tape afresh, and pays
  // for each new thread's thread_local Eq. 37 ratio scratch
  // (ShardedParamServer::push): per-run costs independent of the step
  // count. Same slack rationale as above. A real per-step leak would add
  // at least 72 counts (2 workers x 36 extra steps), far above this slack.
  EXPECT_LE(long_run, short_run + 24)
      << "model forward/backward on worker replicas must replay allocation-free";
}

TEST(AllocCount, ChannelWorkersWithModelReplicasAndTapes) {
  force_inline_parallelism();
  // The channel harness over two InprocChannels: the same replicas, on
  // plain threads, each recording on the tape its worker body owns.
  LmReplicaCluster cluster;
  std::vector<std::unique_ptr<yf::dist::InprocChannel>> channels;
  std::vector<yf::dist::ChannelWorker> workers;
  for (std::size_t w = 0; w < cluster.params.size(); ++w) {
    channels.push_back(std::make_unique<yf::dist::InprocChannel>(*cluster.server));
    workers.push_back({channels.back().get(), cluster.params[w], cluster.grad_fns[w]});
  }

  auto run = [&](std::int64_t steps) {
    yf::dist::ChannelRunOptions ro;
    ro.steps_per_worker = steps;
    return allocations_during([&] { (void)yf::dist::run_channel_workers(workers, ro); });
  };
  (void)run(12);  // warm-up
  const auto short_run = run(12);
  const auto long_run = run(48);
  // Each run starts fresh threads, whose thread_local scratch and tapes
  // are per-run costs; a per-step leak would add at least 72 counts.
  EXPECT_LE(long_run, short_run + 24)
      << "channel workers must replay their replicas allocation-free";
}
