// Forward-only serving engine with dynamic micro-batching (DESIGN.md §11).
//
// LMServer glues the serving pieces together:
//
//  * a SnapshotStore of versioned parameter copies; the trainer thread
//    calls publish() at step boundaries (one memcpy out of the arena,
//    never blocked by inference) while inference pins the latest version;
//  * a bounded micro-batching queue: infer() enqueues a stack-allocated
//    request and blocks until served; workers coalesce up to `max_batch`
//    concurrent requests, waiting at most `max_wait_us` for stragglers,
//    and run ONE batched forward (the PR 5 packed GEMM path) per batch;
//  * a pool of ServeWorker threads, each owning a private LMForward whose
//    plans are warmed at thread start, so steady-state serving performs
//    zero heap allocations (pinned by tests/alloc_count_test.cpp).
//
// Shutdown follows the repo-wide drain-on-shutdown idiom (DESIGN.md §12,
// shared with dist::MasterServer): shutdown() closes intake first (new
// infer()/publish() calls are refused), drains -- requests enqueued
// before shutdown are served, not dropped -- joins the workers, and only
// then flips stopped(). Entry points called after shutdown() throw
// std::logic_error instead of racing a dying object.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/arena.hpp"
#include "nn/language_model.hpp"
#include "serve/snapshot.hpp"

namespace yf::serve {

struct ServeOptions {
  std::int64_t seq_len = 16;
  std::int64_t max_batch = 8;      ///< coalesce at most this many requests
  std::int64_t max_wait_us = 200;  ///< straggler budget once a batch has begun forming
  int workers = 1;
  int snapshot_slots = 4;
  std::int64_t queue_capacity = 64;  ///< enqueue backpressure bound
};

struct ServeStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;  ///< forwards run; < requests when coalescing works
};

class LMServer {
 public:
  /// Flattens the model's parameters into an owned ParamArena (adopting
  /// existing flat storage if the trainer already arena-backed them, so
  /// trainer updates stay visible to publish()), publishes version 1, and
  /// starts the worker pool. `model` must outlive the server.
  explicit LMServer(const nn::LSTMLanguageModel& model, ServeOptions opts = {});
  ~LMServer();

  LMServer(const LMServer&) = delete;
  LMServer& operator=(const LMServer&) = delete;

  /// Snapshot the current arena values as a new version (trainer-side;
  /// wait-free, never blocks on inference). Returns the new version.
  /// Throws std::logic_error once the server has been shut down -- a
  /// publish racing teardown used to silently write into a store whose
  /// readers were going away; now it is a loud contract violation.
  std::uint64_t publish() {
    if (stopped_.load(std::memory_order_acquire)) {
      throw std::logic_error("LMServer::publish after shutdown");
    }
    return store_.publish(arena_.values());
  }

  /// Drain-on-shutdown (idiom above): refuse new work, serve what is
  /// queued, join the workers, flip stopped(). Idempotent; also run by
  /// the destructor.
  void shutdown();
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Serve one request of exactly seq_len tokens: blocks until a worker
  /// has run it (possibly coalesced with concurrent requests) and filled
  /// `logits_out` with seq_len * vocab doubles (row t = logits after
  /// token t). Returns the parameter version served. Thread-safe.
  std::uint64_t infer(std::span<const std::int64_t> tokens, std::span<double> logits_out);

  ServeStats stats() const;

  std::int64_t vocab() const { return vocab_; }
  const SnapshotStore& store() const { return store_; }
  core::ParamArena& arena() { return arena_; }

 private:
  struct Request {
    std::span<const std::int64_t> tokens;
    std::span<double> out;
    std::uint64_t version = 0;
    bool done = false;
  };

  void worker_loop();

  const nn::LSTMLanguageModel* model_;
  ServeOptions opts_;
  std::int64_t vocab_;
  core::ParamArena arena_;
  SnapshotStore store_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< workers: work available / batch filled
  std::condition_variable done_cv_;   ///< clients: request served
  std::condition_variable space_cv_;  ///< clients: queue has room
  std::vector<Request*> ring_;        ///< fixed-capacity FIFO of waiting requests
  std::int64_t head_ = 0;
  std::int64_t count_ = 0;
  bool stopping_ = false;            ///< intake closed; workers drain and exit
  std::atomic<bool> stopped_{false};  ///< drained and joined (publish guard)
  ServeStats stats_;

  std::vector<std::thread> threads_;
};

}  // namespace yf::serve
