// serve_lm: an LMServer (1 worker, max_batch 4, seq 16) serving the
// TS-sub model to 3 closed-loop client threads while a publisher thread
// calls publish() on a fixed 1 ms schedule, about the cadence of a TS-sub
// training step. Requests are MarkovText token rows drawn from the seed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "serve/engine.hpp"
#include "serve/lm_forward.hpp"
#include "tasks.hpp"

namespace perfbench {
namespace {

namespace serve = yf::serve;

constexpr int kClients = 3;
constexpr std::int64_t kSeq = 16;
constexpr std::int64_t kMaxBatch = 4;
constexpr int kBuilds = 12;
constexpr std::int64_t kWarmRequests = 60;   ///< per client, inside each build
constexpr std::int64_t kAllocRequests = 500; ///< per client, counting allocations
constexpr std::int64_t kPool = 64;          ///< request rows per client, cycled
constexpr std::int64_t kProbes = 32;
constexpr int kForwardReps = 400;
constexpr auto kPublishEvery = std::chrono::microseconds(1000);
constexpr double kMaxRequestsPerSecond = 100000;

struct Service {
  std::unique_ptr<yf::nn::LSTMLanguageModel> model;
  /// Per client: kPool rows of kSeq + 1 tokens; a request is a row's first kSeq.
  std::vector<std::vector<std::int64_t>> requests;
  std::vector<std::int64_t> probes;  ///< kProbes rows of kSeq + 1 tokens
  std::unique_ptr<serve::LMServer> server;
};

std::unique_ptr<Service> build(std::uint64_t seed) {
  auto s = std::make_unique<Service>();
  yf::tensor::Rng init(kInitSeed);
  s->model = std::make_unique<yf::nn::LSTMLanguageModel>(ts_model_config(), init);
  const yf::data::MarkovText text(ts_text_config());
  for (int c = 0; c < kClients; ++c) {
    yf::tensor::Rng rng(seed + 5000 + static_cast<std::uint64_t>(c));
    s->requests.push_back(text.sample_batch(kPool, kSeq + 1, rng));
  }
  yf::tensor::Rng probe_rng(seed + 6000);
  s->probes = text.sample_batch(kProbes, kSeq + 1, probe_rng);
  serve::ServeOptions opts;
  opts.seq_len = kSeq;
  opts.max_batch = kMaxBatch;
  opts.workers = 1;
  s->server = std::make_unique<serve::LMServer>(*s->model, opts);
  return s;
}

struct ClientLoad {
  Latencies latency_us;
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  SpanLog* log = nullptr;
};

/// Closed-loop load: every client sends its next request when the last
/// one returns, `count` requests each (count > 0) or until `seconds` pass;
/// the publisher publishes every kPublishEvery meanwhile. Returns the
/// wall time from the first request to the last reply.
double run_load(Service& s, std::vector<ClientLoad>& clients, std::int64_t count,
                double seconds, bool record, SpanLog* publish_log) {
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  std::atomic<bool> stop{false};
  std::thread publisher([&s, &stop, publish_log] {
    auto next = std::chrono::steady_clock::now();
    std::uint64_t op = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      next += kPublishEvery;
      std::this_thread::sleep_until(next);
      if (publish_log) publish_log->set_op(op++);
      Scope span(publish_log, kServePublish);
      s.server->publish();
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&s, &clients, c, count, deadline, record] {
      ClientLoad& load = clients[static_cast<std::size_t>(c)];
      const auto& rows = s.requests[static_cast<std::size_t>(c)];
      std::vector<double> out(static_cast<std::size_t>(kSeq * s.server->vocab()));
      for (std::int64_t i = 0; count > 0 ? i < count : now_ns() < deadline; ++i) {
        const auto row = static_cast<std::size_t>((i % kPool) * (kSeq + 1));
        const std::span<const std::int64_t> tokens(rows.data() + row, kSeq);
        if (load.log) load.log->set_op(static_cast<std::uint64_t>(load.sent));
        const std::int64_t t0 = now_ns();
        const int root = load.log ? load.log->open(kServeRequest) : -1;
        ++load.sent;
        try {
          s.server->infer(tokens, out);
          ++load.answered;
        } catch (const std::exception&) {
          // Refused or failed: counted as sent but not answered.
        }
        if (load.log) load.log->close(root);
        if (record) load.latency_us.push_back(static_cast<float>(now_ns() - t0) * 1e-3f);
      }
    });
  }
  for (auto& t : threads) t.join();
  const std::int64_t end = now_ns();
  stop.store(true);
  publisher.join();
  return static_cast<double>(end - start) * 1e-9;
}

/// Measured load into `r`: attempted/completed requests, and each client's
/// latencies as one run of `latency_us`. `capacity` sizes every client's
/// sample buffer up front, out of the requests.
void measure(Service& s, double seconds, std::size_t capacity, RunResult& r,
             LatencyRuns& latency_us, std::vector<ClientLoad>& clients, SpanLog* publish_log) {
  for (auto& c : clients) {
    c.sent = c.answered = 0;
    c.latency_us.reserve(capacity);
  }
  r.measured_s += run_load(s, clients, 0, seconds, true, publish_log);
  for (auto& c : clients) {
    r.attempted += c.sent;
    r.completed += c.answered;
    r.failed += c.sent - c.answered;
    latency_us.push_back(std::move(c.latency_us));
    c.latency_us = {};
  }
}

/// Mean next-token cross-entropy of the served logits over the probe rows;
/// also checks the first probe against LSTMLanguageModel::logits bit for bit.
double served_loss(Service& s, bool& identical) {
  const std::int64_t vocab = s.server->vocab();
  std::vector<double> out(static_cast<std::size_t>(kSeq * vocab));
  double sum = 0.0;
  identical = true;
  for (std::int64_t p = 0; p < kProbes; ++p) {
    const auto row = s.probes.begin() + p * (kSeq + 1);
    const std::vector<std::int64_t> tokens(row, row + kSeq);
    s.server->infer(tokens, out);
    for (std::int64_t t = 0; t < kSeq; ++t) {
      const double* logits = out.data() + t * vocab;
      const double peak = *std::max_element(logits, logits + vocab);
      double z = 0.0;
      for (std::int64_t v = 0; v < vocab; ++v) z += std::exp(logits[v] - peak);
      sum += peak + std::log(z) - logits[*(row + t + 1)];
    }
    if (p == 0) {
      const auto expected = s.model->logits(tokens, 1, kSeq).value();
      for (std::int64_t i = 0; i < expected.size(); ++i) {
        identical = identical && out[static_cast<std::size_t>(i)] == expected[i];
      }
    }
  }
  return sum / static_cast<double>(kProbes * kSeq);
}

/// Median LMForward::forward time at batch sizes 1..kMaxBatch on the
/// served snapshot, outside any load.
std::vector<double> forward_us(Service& s) {
  serve::LMForward fwd(*s.model, s.server->arena(), s.server->store(), kSeq, kMaxBatch);
  const auto pin = s.server->store().acquire();
  fwd.warm_all(pin.slot());
  std::vector<std::int64_t> tokens;
  for (std::int64_t b = 0; b < kMaxBatch; ++b) {
    const auto row = s.probes.begin() + b * (kSeq + 1);
    tokens.insert(tokens.end(), row, row + kSeq);
  }
  std::vector<double> result;
  std::vector<double> times(kForwardReps);
  for (std::int64_t b = 1; b <= kMaxBatch; ++b) {
    const std::span<const std::int64_t> batch(tokens.data(), static_cast<std::size_t>(b * kSeq));
    for (double& t : times) {
      const std::int64_t t0 = now_ns();
      fwd.forward(batch, b, pin.slot());
      t = static_cast<double>(now_ns() - t0) * 1e-3;
    }
    result.push_back(median(times));
  }
  return result;
}

}  // namespace

RunResult run_serve_lm(const Options& opts) {
  RunResult r;
  std::vector<ClientLoad> clients(kClients);
  bool answered = true;
  // One fresh build from nothing: model, request streams, server, and a
  // fixed count of warm-up requests from every client.
  const auto timed_build = [&] {
    const std::int64_t t0 = now_ns();
    auto s = build(opts.seed);
    run_load(*s, clients, kWarmRequests, 0.0, false, nullptr);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    for (const auto& c : clients) answered = answered && c.answered == c.sent;
    return s;
  };

  // Builds are timed on both sides of the measured window (see train.cpp);
  // the last one before the window is the one measured.
  std::unique_ptr<Service> s;
  for (int b = 0; b < (opts.trace ? 1 : kBuilds / 2); ++b) {
    s.reset();
    s = timed_build();
  }

  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto capacity = static_cast<std::size_t>(window * kMaxRequestsPerSecond / kClients);
  measure(*s, window, capacity, r, opts.trace ? r.untraced_latency_us : r.latency_us, clients,
          nullptr);
  r.peak_rss_mb = peak_rss_mb();

  if (opts.trace) {
    r.span_logs.reserve(kClients + 1);
    for (auto& c : clients) {
      r.span_logs.emplace_back(capacity * kClients);
      c.log = &r.span_logs.back();
    }
    r.span_logs.emplace_back(static_cast<std::size_t>(window * 2000));
    SpanLog* publish_log = &r.span_logs.back();
    const auto stats0 = s->server->stats();
    measure(*s, window, capacity, r, r.latency_us, clients, publish_log);
    const auto stats1 = s->server->stats();
    for (auto& c : clients) c.log = nullptr;
    // Allocations are counted over a further fixed load, apart from the
    // timed spans: the counting allocator's shared atomic would show in them.
    const std::uint64_t allocs0 = counted_allocs();
    set_alloc_counting(true);
    run_load(*s, clients, kAllocRequests, 0.0, false, nullptr);
    set_alloc_counting(false);
    r.layer["core.allocs_per_step"] = static_cast<double>(counted_allocs() - allocs0) /
                                      static_cast<double>(kClients * kAllocRequests);
    const double coalesce =
        stats1.batches > stats0.batches
            ? static_cast<double>(stats1.requests - stats0.requests) /
                  static_cast<double>(stats1.batches - stats0.batches)
            : 0.0;
    r.layer["serve.coalesce"] = coalesce;
    const auto fwd = forward_us(*s);
    r.layer["serve.forward_us"] = fwd.front();
    r.layer["serve.forward_max_batch_us"] = fwd.back();
    // Forward time at the mean batch served, interpolated between sizes.
    const double at = std::clamp(coalesce, 1.0, static_cast<double>(kMaxBatch)) - 1.0;
    const auto lo = static_cast<std::size_t>(std::floor(at));
    const std::size_t hi = std::min(lo + 1, fwd.size() - 1);
    const double served_forward = fwd[lo] + (at - static_cast<double>(lo)) * (fwd[hi] - fwd[lo]);
    std::vector<double> traced;
    for (const auto& run : r.latency_us) traced.insert(traced.end(), run.begin(), run.end());
    r.layer["serve.wait_us"] = median(std::move(traced)) - served_forward;
  }

  for (int b = 0; b < (opts.trace ? 0 : kBuilds - kBuilds / 2); ++b) timed_build();

  bool identical = false;
  r.mean_loss = served_loss(*s, identical);
  r.check("every_request_answered", answered && r.failed == 0);
  r.check("probe_logits_bit_identical", identical);
  s->server->shutdown();
  return r;
}

}  // namespace perfbench
