// async_socket: the paper's asynchronous closed-loop YellowFin
// (Algorithm 5, Figs. 1 and 4) on the socket engine.
//
// An in-process MasterServer on loopback serves a ShardedParamServer (4
// shards, total-momentum measurement and the closed loop on, no
// checkpoints). Three worker threads each own a RemoteParamClient and a
// TS-sub replica, driven by dist::run_channel_workers with no tape, as in
// examples/dist_training. The benchmark sees each round through a
// ParamChannel decorator: the round's latency runs from the pull request
// to the push reply, and traced runs put spans around pull and push.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <vector>

#include "async/param_server.hpp"
#include "bench.hpp"
#include "dist/channel.hpp"
#include "dist/client.hpp"
#include "dist/master.hpp"
#include "dist/wire.hpp"
#include "tasks.hpp"

namespace perfbench {
namespace {

namespace async = yf::async;
namespace dist = yf::dist;

constexpr int kWorkers = 3;
constexpr std::int64_t kShards = 4;
constexpr int kBuilds = 12;
constexpr std::int64_t kWarmRounds = 12;    ///< per worker, inside each build
constexpr std::int64_t kChunkRounds = 400;  ///< per worker per run_channel_workers call
constexpr std::int64_t kHorizon = 2400;     ///< mean_loss averages updates 1..kHorizon
/// Rounds each worker records per measured window, at least: one of
/// stats.py's 1000-sample blocks.
constexpr std::size_t kMinSamples = 1200;
/// Fig. 4's closed loop holds the measured total momentum on its target;
/// a tail-mean gap beyond this means the feedback loop is not working.
constexpr double kMuGapBound = 0.1;
constexpr double kMaxRoundsPerSecond = 20000;

/// ParamChannel decorator that times each round and, when tracing, opens
/// the round's root span at the pull and closes it at the push reply.
class TimedChannel final : public dist::ParamChannel {
 public:
  explicit TimedChannel(dist::ParamChannel& inner) : inner_(inner) {}

  std::int64_t size() const override { return inner_.size(); }
  std::int64_t shard_count() const override { return inner_.shard_count(); }

  void pull(std::span<double> dst, async::PullTicket& ticket) override {
    if (log) {
      log->set_op(rounds_);
      root_ = log->open(kDistRound);
    }
    start_ns_ = now_ns();
    {
      Scope s(log, kDistPull);
      inner_.pull(dst, ticket);
    }
    pulled_ = ticket.versions.empty()
                  ? 0
                  : *std::min_element(ticket.versions.begin(), ticket.versions.end());
  }

  async::ApplyStats push(std::span<double> grad, const async::PullTicket& ticket) override {
    async::ApplyStats stats;
    {
      Scope s(log, kDistPush);
      stats = inner_.push(grad, ticket);
    }
    const std::int64_t end = now_ns();
    if (log) log->close(root_);
    if (recording) {
      latency_us.push_back(static_cast<float>(end - start_ns_) * 1e-3f);
      // Updates other workers applied between this round's pull and push.
      stale_sum += static_cast<double>(stats.update_index - 1 - pulled_);
      ++stale_n;
    }
    ++rounds_;
    return stats;
  }

  // Owned by the worker thread while rounds run; read between chunks.
  SpanLog* log = nullptr;  ///< set for the traced half
  bool recording = false;  ///< set for measured rounds
  Latencies latency_us;
  double stale_sum = 0.0;
  std::int64_t stale_n = 0;

 private:
  dist::ParamChannel& inner_;
  std::uint64_t rounds_ = 0;
  int root_ = -1;
  std::int64_t start_ns_ = 0;
  std::int64_t pulled_ = 0;
};

/// What the benchmark keeps of the stream of applied pushes. It is kept in
/// fixed memory so that the runner's own footprint, which peak_rss_mb
/// includes, does not step with the number of updates a run reaches.
struct Trajectory {
  std::int64_t pushes = 0;
  bool finite = true;
  double first_loss = NAN;   ///< loss of update 1
  double horizon_sum = 0.0;  ///< losses of updates 1..kHorizon
  std::int64_t horizon_n = 0;
  /// Measured total momentum minus the tuner's target, over the updates
  /// past kHorizon, once the closed loop has settled.
  double gap_sum = 0.0;
  std::int64_t gap_n = 0;

  void add(const async::ApplyStats& s, double loss) {
    ++pushes;
    finite = finite && std::isfinite(loss);
    if (s.update_index == 1) first_loss = loss;
    if (s.update_index <= kHorizon) {
      horizon_sum += loss;
      ++horizon_n;
    } else if (s.mu_hat_total) {
      gap_sum += *s.mu_hat_total - s.target_momentum;
      ++gap_n;
    }
  }
};

/// One master plus its workers, built from nothing. Members are declared
/// so the clients go before the master and the master before the server.
struct Cluster {
  std::unique_ptr<CharLmTask> master_task;
  std::unique_ptr<async::ShardedParamServer> server;
  std::unique_ptr<dist::MasterServer> master;
  std::vector<std::unique_ptr<dist::RemoteParamClient>> clients;
  std::vector<std::unique_ptr<TimedChannel>> channels;
  std::vector<std::unique_ptr<CharLmTask>> replicas;
  std::vector<dist::ChannelWorker> workers;

  Trajectory traj;  ///< every push so far

  /// Clean departure of every client; returns whether the master counted
  /// them all.
  bool shutdown() {
    for (auto& c : clients) c->shutdown();
    const bool clean = master->wait_for_clients(kWorkers, std::chrono::seconds(10));
    master->shutdown();
    return clean && master->stats().clean_shutdowns == kWorkers;
  }
};

std::unique_ptr<Cluster> build(std::uint64_t seed) {
  auto c = std::make_unique<Cluster>();
  c->master_task = std::make_unique<CharLmTask>(seed);
  auto opt = std::make_shared<yf::tuner::YellowFin>(c->master_task->params(), quick_yellowfin());
  async::ParamServerOptions sopts;
  sopts.shards = kShards;
  sopts.measure = true;
  sopts.closed_loop = true;
  c->server = std::make_unique<async::ShardedParamServer>(opt, sopts);
  c->master = std::make_unique<dist::MasterServer>(*c->server, dist::MasterOptions{});
  dist::ClientOptions copts;
  copts.port = c->master->port();
  for (int w = 0; w < kWorkers; ++w) {
    c->clients.push_back(std::make_unique<dist::RemoteParamClient>(copts));
    c->channels.push_back(std::make_unique<TimedChannel>(*c->clients.back()));
    // Per-worker minibatch streams, as yfb::run_one_server seeds replicas.
    c->replicas.push_back(
        std::make_unique<CharLmTask>(seed + 100000 * static_cast<std::uint64_t>(w + 1)));
    TimedChannel* channel = c->channels.back().get();
    CharLmTask* task = c->replicas.back().get();
    dist::ChannelWorker worker;
    worker.channel = channel;
    worker.params = task->params();
    worker.grad_fn = [channel, task] { return grad_step(*task, channel->log); };
    c->workers.push_back(std::move(worker));
  }
  return c;
}

/// One run_channel_workers call; false when a worker threw.
bool run_rounds(Cluster& c, std::int64_t rounds) {
  dist::ChannelRunOptions ropts;
  ropts.steps_per_worker = rounds;
  try {
    const auto res = dist::run_channel_workers(c.workers, ropts);
    for (std::size_t i = 0; i < res.stats.size(); ++i) c.traj.add(res.stats[i], res.losses[i]);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Rounds for `seconds`, and until kHorizon updates are applied and every
/// worker has kMinSamples rounds, timing every round. Each worker's rounds
/// become one run of `latency_us`; `capacity` sizes its sample buffer up
/// front, out of the rounds. Returns false when a chunk threw.
bool measure(Cluster& c, double seconds, std::size_t capacity, RunResult& r,
             LatencyRuns& latency_us) {
  for (auto& ch : c.channels) {
    ch->latency_us.reserve(capacity);
    ch->recording = true;
  }
  const std::int64_t updates0 = c.server->updates();
  const std::int64_t start = now_ns();
  std::int64_t end = start;
  const auto done = [&] {
    if (end - start < static_cast<std::int64_t>(seconds * 1e9)) return false;
    if (c.server->updates() < kHorizon) return false;
    return std::all_of(c.channels.begin(), c.channels.end(),
                       [](const auto& ch) { return ch->latency_us.size() >= kMinSamples; });
  };
  bool ok = true;
  while (ok && !done()) {
    ok = run_rounds(c, kChunkRounds);
    end = now_ns();
    r.attempted += kWorkers * kChunkRounds;
  }
  for (auto& ch : c.channels) {
    ch->recording = false;
    latency_us.push_back(std::move(ch->latency_us));
    ch->latency_us = {};
  }
  r.completed += c.server->updates() - updates0;
  r.measured_s += static_cast<double>(end - start) * 1e-9;
  if (!ok) ++r.failed;
  return ok;
}

std::int64_t reconnects(const Cluster& c) {
  std::int64_t n = 0;
  for (const auto& client : c.clients) n += client->reconnects();
  return n;
}

}  // namespace

RunResult run_async_socket(const Options& opts) {
  RunResult r;
  bool ok = true;
  // One fresh build from nothing: master, clients, replicas, warm rounds.
  const auto timed_build = [&] {
    const std::int64_t t0 = now_ns();
    auto c = build(opts.seed);
    ok = run_rounds(*c, kWarmRounds) && ok;
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return c;
  };

  // Builds are timed on both sides of the measured window (see train.cpp);
  // the last one before the window is the one measured.
  std::unique_ptr<Cluster> c;
  for (int b = 0; b < (opts.trace ? 1 : kBuilds / 2); ++b) {
    if (c) ok = c->shutdown() && ok;
    c.reset();
    c = timed_build();
  }

  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto capacity = static_cast<std::size_t>(window * kMaxRoundsPerSecond);
  ok = ok &&
       measure(*c, window, capacity, r, opts.trace ? r.untraced_latency_us : r.latency_us);
  r.peak_rss_mb = peak_rss_mb();

  if (ok && opts.trace) {
    r.span_logs.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      r.span_logs.emplace_back(capacity * 8);
      c->channels[static_cast<std::size_t>(w)]->log = &r.span_logs.back();
    }
    ok = measure(*c, window, capacity, r, r.latency_us);
    for (auto& ch : c->channels) ch->log = nullptr;
    // Allocations are counted over one more chunk, apart from the timed
    // spans: the counting allocator's shared atomic would show in them.
    const std::int64_t pushes0 = c->traj.pushes;
    const std::uint64_t allocs0 = counted_allocs();
    set_alloc_counting(true);
    ok = run_rounds(*c, kChunkRounds) && ok;
    set_alloc_counting(false);
    r.attempted += kWorkers * kChunkRounds;
    r.completed += c->traj.pushes - pushes0;
    r.layer["core.allocs_per_step"] = static_cast<double>(counted_allocs() - allocs0) /
                                      static_cast<double>(kWorkers * kChunkRounds);
  }
  for (int b = 0; b < (opts.trace ? 0 : kBuilds - kBuilds / 2); ++b) {
    ok = timed_build()->shutdown() && ok;
  }
  r.failed += reconnects(*c);

  const Trajectory& traj = c->traj;
  r.first_loss = traj.first_loss;
  r.mean_loss =
      traj.horizon_n == kHorizon ? traj.horizon_sum / static_cast<double>(kHorizon) : NAN;
  const double gap = traj.gap_n > 0 ? traj.gap_sum / static_cast<double>(traj.gap_n) : NAN;

  const auto st = c->master->stats();
  const std::int64_t retries = reconnects(*c) + st.retried_pushes + st.deduped_pushes + st.errors;
  r.check("loss_finite", traj.finite && traj.pushes > 0);
  r.check("mean_loss_below_first", r.mean_loss < r.first_loss);
  r.check("pushes_match", st.pushes == traj.pushes && traj.pushes == c->server->updates());
  r.check("no_errors", st.errors == 0 && ok);
  r.check("mu_gap_bounded", std::abs(gap) < kMuGapBound);

  if (opts.trace) {
    // DESIGN.md §12 frames: 40-byte header; pull_reply carries K versions
    // and N values after a u64 count; push carries seq, count, K versions
    // and N gradients; push_reply carries the 33-byte ApplyStats.
    const double n = static_cast<double>(c->server->size());
    const double k = static_cast<double>(c->server->shard_count());
    const double hdr = static_cast<double>(dist::kHeaderBytes);
    const double pull_bytes = hdr + (hdr + 8 + 8 * k + 8 * n);
    const double push_bytes = (hdr + 16 + 8 * k + 8 * n) + (hdr + 33);
    r.layer["dist.bytes_per_update"] =
        st.pushes > 0 ? (static_cast<double>(st.pulls) * pull_bytes +
                         static_cast<double>(st.pushes) * push_bytes) /
                            static_cast<double>(st.pushes)
                      : 0.0;
    r.layer["dist.retries"] = static_cast<double>(retries);
    double stale_sum = 0.0;
    std::int64_t stale_n = 0;
    for (const auto& ch : c->channels) {
      stale_sum += ch->stale_sum;
      stale_n += ch->stale_n;
    }
    r.layer["async.staleness"] = stale_n > 0 ? stale_sum / static_cast<double>(stale_n) : 0.0;
    r.layer["async.mu_gap"] = std::abs(gap);
  }
  r.check("clean_shutdowns", c->shutdown());
  return r;
}

}  // namespace perfbench
