// Serving engine tests (DESIGN.md §11): bit-identity of served logits
// against the training forward, snapshot pin stability under concurrent
// publishes (run under TSan in CI), micro-batch coalescing equivalence,
// and serving while a trainer thread publishes new versions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "nn/language_model.hpp"
#include "optim/momentum_sgd.hpp"
#include "serve/engine.hpp"
#include "serve/lm_forward.hpp"
#include "serve/snapshot.hpp"
#include "tensor/random.hpp"

namespace nn = yf::nn;
namespace t = yf::tensor;
namespace serve = yf::serve;

namespace {

nn::LanguageModelConfig small_lm_config(bool tied) {
  nn::LanguageModelConfig cfg;
  cfg.vocab = 12;
  cfg.embed_dim = 6;
  cfg.hidden = 8;
  cfg.layers = 2;
  cfg.tie_weights = tied;
  if (tied) cfg.embed_dim = cfg.hidden;  // tying needs E == H
  return cfg;
}

std::vector<std::int64_t> sample_tokens(std::int64_t n, std::int64_t vocab, t::Rng& rng) {
  std::vector<std::int64_t> toks(static_cast<std::size_t>(n));
  for (auto& tok : toks) tok = rng.index(vocab);
  return toks;
}

}  // namespace

TEST(SnapshotStore, RejectsDegenerateConfigs) {
  EXPECT_THROW(serve::SnapshotStore(0), std::invalid_argument);
  EXPECT_THROW(serve::SnapshotStore(8, 2), std::invalid_argument);
}

TEST(SnapshotStore, PublishAcquireRoundTrip) {
  serve::SnapshotStore store(4);
  EXPECT_FALSE(store.has_snapshot());
  EXPECT_FALSE(store.acquire().valid());

  const std::vector<double> v1 = {1, 2, 3, 4};
  EXPECT_EQ(store.publish(v1), 1u);
  auto pin = store.acquire();
  ASSERT_TRUE(pin.valid());
  EXPECT_EQ(pin.version(), 1u);
  ASSERT_EQ(pin.values().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(pin.values()[i], v1[i]);

  // A held pin does not block later publishes; it keeps its own version.
  const std::vector<double> v2 = {5, 6, 7, 8};
  EXPECT_EQ(store.publish(v2), 2u);
  EXPECT_EQ(store.latest_version(), 2u);
  EXPECT_EQ(pin.version(), 1u);
  EXPECT_EQ(pin.values()[0], 1.0);
  pin.release();
  EXPECT_EQ(store.acquire().version(), 2u);
}

TEST(SnapshotStore, PinnedSnapshotsAreTornFreeUnderConcurrentPublishes) {
  // Publisher writes version-constant buffers (every element == k) as
  // fast as it can; readers pin and verify they never observe a torn or
  // mid-copy buffer. This is the TSan-facing protocol test.
  const std::int64_t n = 512;
  serve::SnapshotStore store(n, 3);
  std::vector<double> buf(static_cast<std::size_t>(n), 0.0);
  store.publish(buf);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    for (int k = 1; k <= 400; ++k) {
      std::fill(buf.begin(), buf.end(), static_cast<double>(k));
      store.publish(buf);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  std::atomic<int> torn{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_version = 0;
      while (!stop.load()) {
        auto pin = store.acquire();
        ASSERT_TRUE(pin.valid());
        const auto vals = pin.values();
        const double first = vals[0];
        for (const double v : vals) {
          if (v != first) {
            torn.fetch_add(1);
            break;
          }
        }
        // Versions move forward only.
        EXPECT_GE(pin.version(), last_version);
        last_version = pin.version();
      }
    });
  }
  publisher.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(torn.load(), 0) << "a pinned snapshot must never be observed mid-copy";
}

TEST(Serve, LMForwardIsBitIdenticalToTrainingForward) {
  for (const bool tied : {false, true}) {
    const auto cfg = small_lm_config(tied);
    t::Rng rng(5);
    nn::LSTMLanguageModel model(cfg, rng);
    yf::core::ParamArena arena(model.parameters());
    serve::SnapshotStore store(arena.size());
    store.publish(arena.values());

    const std::int64_t batch = 3, seq = 5;
    t::Rng data_rng(7);
    const auto tokens = sample_tokens(batch * seq, cfg.vocab, data_rng);

    serve::LMForward fwd(model, arena, store, seq, batch);
    const auto pin = store.acquire();
    const auto& served = fwd.forward(tokens, batch, pin.slot());
    const auto expected = model.logits(tokens, batch, seq).value();

    ASSERT_EQ(served.size(), expected.size());
    for (std::int64_t i = 0; i < served.size(); ++i) {
      EXPECT_EQ(served[i], expected[i]) << "tied=" << tied << " logit " << i;
    }
  }
}

TEST(Serve, LMForwardValidatesRequests) {
  const auto cfg = small_lm_config(false);
  t::Rng rng(5);
  nn::LSTMLanguageModel model(cfg, rng);
  yf::core::ParamArena arena(model.parameters());
  serve::SnapshotStore store(arena.size());
  store.publish(arena.values());
  serve::LMForward fwd(model, arena, store, 4, 2);

  std::vector<std::int64_t> toks(4, 0);
  EXPECT_THROW(fwd.forward(toks, 2, 0), std::invalid_argument);  // count mismatch
  toks[1] = cfg.vocab;  // out of range
  EXPECT_THROW(fwd.forward(toks, 1, 0), std::out_of_range);
  EXPECT_THROW(fwd.forward(toks, 3, 0), std::invalid_argument);  // batch > max
}

TEST(Serve, ServerSingleRequestMatchesModelLogits) {
  const auto cfg = small_lm_config(false);
  t::Rng rng(5);
  nn::LSTMLanguageModel model(cfg, rng);
  serve::ServeOptions opts;
  opts.seq_len = 6;
  opts.max_batch = 4;
  opts.max_wait_us = 0;
  serve::LMServer server(model, opts);

  t::Rng data_rng(3);
  const auto tokens = sample_tokens(opts.seq_len, cfg.vocab, data_rng);
  std::vector<double> logits(static_cast<std::size_t>(opts.seq_len * cfg.vocab), 0.0);
  const auto version = server.infer(tokens, logits);
  EXPECT_EQ(version, 1u);

  const auto expected = model.logits(tokens, 1, opts.seq_len).value();
  ASSERT_EQ(static_cast<std::int64_t>(logits.size()), expected.size());
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(logits[static_cast<std::size_t>(i)], expected[i]);
  }
}

TEST(Serve, ServerValidatesRequestsBeforeEnqueue) {
  const auto cfg = small_lm_config(false);
  t::Rng rng(5);
  nn::LSTMLanguageModel model(cfg, rng);
  serve::ServeOptions opts;
  opts.seq_len = 4;
  serve::LMServer server(model, opts);

  std::vector<double> logits(static_cast<std::size_t>(opts.seq_len * cfg.vocab), 0.0);
  std::vector<std::int64_t> short_req(2, 0);
  EXPECT_THROW(server.infer(short_req, logits), std::invalid_argument);
  std::vector<std::int64_t> bad_tok(static_cast<std::size_t>(opts.seq_len), cfg.vocab);
  EXPECT_THROW(server.infer(bad_tok, logits), std::out_of_range);
  std::vector<double> short_out(3, 0.0);
  std::vector<std::int64_t> ok(static_cast<std::size_t>(opts.seq_len), 0);
  EXPECT_THROW(server.infer(ok, short_out), std::invalid_argument);

  // A rejected request must not wedge the queue.
  EXPECT_EQ(server.infer(ok, logits), 1u);
}

TEST(Serve, CoalescedBatchesMatchOneByOneRequests) {
  const auto cfg = small_lm_config(false);
  t::Rng rng(5);
  nn::LSTMLanguageModel model(cfg, rng);
  serve::ServeOptions opts;
  opts.seq_len = 5;
  opts.max_batch = 4;
  opts.max_wait_us = 500000;  // generous straggler budget: let all 4 coalesce
  serve::LMServer server(model, opts);

  const std::int64_t n_clients = 4;
  t::Rng data_rng(21);
  std::vector<std::vector<std::int64_t>> requests;
  std::vector<std::vector<double>> outputs;
  for (std::int64_t i = 0; i < n_clients; ++i) {
    requests.push_back(sample_tokens(opts.seq_len, cfg.vocab, data_rng));
    outputs.emplace_back(static_cast<std::size_t>(opts.seq_len * cfg.vocab), 0.0);
  }

  std::vector<std::thread> clients;
  for (std::int64_t i = 0; i < n_clients; ++i) {
    clients.emplace_back([&, i] {
      server.infer(requests[static_cast<std::size_t>(i)], outputs[static_cast<std::size_t>(i)]);
    });
  }
  for (auto& th : clients) th.join();

  // Row b of a batched forward depends only on request b's tokens (the
  // GEMM reduction order per output element is batch-size independent),
  // so coalesced results must be bit-identical to solo requests.
  for (std::int64_t i = 0; i < n_clients; ++i) {
    const auto expected =
        model.logits(requests[static_cast<std::size_t>(i)], 1, opts.seq_len).value();
    for (std::int64_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(outputs[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], expected[j])
          << "client " << i << " logit " << j;
    }
  }
  const auto st = server.stats();
  EXPECT_EQ(st.requests, static_cast<std::uint64_t>(n_clients));
  EXPECT_LT(st.batches, st.requests) << "concurrent requests should coalesce";
}

// The drain-on-shutdown idiom (DESIGN.md §12, shared with the distributed
// MasterServer): shutdown() is idempotent, already-served work stays
// valid, and post-shutdown entry points are loud contract violations
// instead of races against teardown.
TEST(Serve, ShutdownIsIdempotentAndPinsPostShutdownCalls) {
  const auto cfg = small_lm_config(false);
  t::Rng rng(5);
  nn::LSTMLanguageModel model(cfg, rng);
  serve::ServeOptions opts;
  opts.seq_len = 6;
  opts.max_wait_us = 0;
  serve::LMServer server(model, opts);

  t::Rng data_rng(3);
  const auto tokens = sample_tokens(opts.seq_len, cfg.vocab, data_rng);
  std::vector<double> logits(static_cast<std::size_t>(opts.seq_len * cfg.vocab), 0.0);
  EXPECT_EQ(server.publish(), 2u);  // live: the trainer-side path works...
  EXPECT_EQ(server.infer(tokens, logits), 2u);
  EXPECT_FALSE(server.stopped());

  server.shutdown();
  server.shutdown();  // idempotent
  EXPECT_TRUE(server.stopped());
  // ...and after shutdown both entry points refuse instead of racing a
  // store/queue whose workers are gone.
  EXPECT_THROW(server.publish(), std::logic_error);
  EXPECT_THROW(server.infer(tokens, logits), std::logic_error);
  // The destructor's shutdown() is a no-op on the already-drained server.
}

TEST(Serve, ServesWhileTrainerPublishes) {
  const auto cfg = small_lm_config(false);
  t::Rng rng(5);
  nn::LSTMLanguageModel model(cfg, rng);
  serve::ServeOptions opts;
  opts.seq_len = 5;
  opts.max_batch = 2;
  opts.max_wait_us = 100;
  opts.workers = 2;
  serve::LMServer server(model, opts);

  const std::int64_t batch = 2, seq_plus1 = opts.seq_len + 1, steps = 30;
  t::Rng data_rng(33);
  const auto train_tokens = sample_tokens(batch * seq_plus1, cfg.vocab, data_rng);

  // Trainer thread: step the live parameters, publish at step boundaries.
  std::thread trainer([&] {
    yf::optim::MomentumSGD opt(model.parameters(), 0.05, 0.9);
    for (std::int64_t i = 0; i < steps; ++i) {
      opt.zero_grad();
      auto loss = model.loss(train_tokens, batch, seq_plus1);
      loss.backward();
      opt.step();
      server.publish();
    }
  });

  std::vector<std::thread> clients;
  std::atomic<bool> monotonic{true};
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      t::Rng client_rng(100 + c);
      const auto toks = sample_tokens(opts.seq_len, cfg.vocab, client_rng);
      std::vector<double> out(static_cast<std::size_t>(opts.seq_len * cfg.vocab), 0.0);
      std::uint64_t last = 0;
      for (int i = 0; i < 50; ++i) {
        const auto version = server.infer(toks, out);
        if (version < last) monotonic.store(false);
        last = version;
      }
    });
  }
  trainer.join();
  for (auto& th : clients) th.join();

  EXPECT_TRUE(monotonic.load()) << "served versions must never move backwards per client";
  EXPECT_EQ(server.store().latest_version(), static_cast<std::uint64_t>(steps + 1));

  // After training settles, serving reflects the final published weights.
  t::Rng check_rng(55);
  const auto toks = sample_tokens(opts.seq_len, cfg.vocab, check_rng);
  std::vector<double> out(static_cast<std::size_t>(opts.seq_len * cfg.vocab), 0.0);
  EXPECT_EQ(server.infer(toks, out), static_cast<std::uint64_t>(steps + 1));
  const auto expected = model.logits(toks, 1, opts.seq_len).value();
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], expected[i]);
  }
}
