// Distributed engine tests (dist/*, DESIGN.md §12): the socket transport
// end to end on localhost. The headline pin is the acceptance criterion
// for the whole subsystem -- a one-worker closed-loop YellowFin run over
// the socket engine is EXPECT_EQ-bit-identical to the in-process engine,
// which holds because the wire carries doubles as IEEE-754 bit patterns
// and the master applies them through the same ShardedParamServer
// arithmetic. Also covered: the hello handshake, multi-client convergence
// with live ApplyStats, protocol-violation error frames, and both sides'
// shutdown handshake / post-shutdown contracts.
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "async/param_server.hpp"
#include "dist/channel.hpp"
#include "dist/client.hpp"
#include "dist/fault.hpp"
#include "dist/master.hpp"
#include "dist/socket.hpp"
#include "dist/wire.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

namespace ag = yf::autograd;
namespace async = yf::async;
namespace dist = yf::dist;
namespace t = yf::tensor;

namespace {

constexpr const char* kHost = "127.0.0.1";

/// True when the chaos CI variant armed YF_FAULT_PLAN: retries then make
/// exact connection/frame counts nondeterministic, so those assertions
/// relax while every exactly-once and trajectory pin stays unconditional.
bool chaos_active() { return dist::FaultPlan::from_env().active(); }

std::vector<ag::Variable> make_params(const std::vector<t::Shape>& shapes, std::uint64_t seed) {
  t::Rng rng(seed);
  std::vector<ag::Variable> params;
  for (const auto& s : shapes) params.emplace_back(rng.normal_tensor(s), true);
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

const std::vector<t::Shape> kShapes = {{5, 3}, {8}, {2, 6}, {1}};  // 36 scalars

/// Noisy-quadratic worker over its own replica Variables, deterministic
/// per seed (the tests/param_server_test.cpp gradient).
dist::ChannelWorker make_quad_worker(std::uint64_t seed) {
  dist::ChannelWorker worker;
  worker.params = make_params(kShapes, 77);
  auto params = worker.params;  // grad_fn keeps the Variables alive
  auto rng = std::make_shared<t::Rng>(seed);
  worker.grad_fn = [params, rng]() mutable {
    double loss = 0.0;
    for (auto& p : params) {
      const auto x = p.value().data();
      auto g = p.node()->ensure_grad().data();
      for (std::size_t j = 0; j < g.size(); ++j) {
        loss += 0.5 * 1.3 * x[j] * x[j];
        g[j] = 1.3 * x[j] + 0.01 * rng->normal();
      }
    }
    return loss;
  };
  return worker;
}

struct EngineRun {
  std::vector<double> final_values;
  async::ServerRunResult result;
};

/// One closed-loop YellowFin run, one worker, `steps` rounds, over either
/// the in-process channel or a real socket round trip to a MasterServer
/// in this same process. Everything else is identical by construction.
EngineRun run_engine(bool over_socket, int steps) {
  auto master = make_params(kShapes, 77);
  yf::tuner::YellowFinOptions yopts;
  yopts.beta = 0.99;
  auto opt = std::make_shared<yf::tuner::YellowFin>(master, yopts);
  async::ParamServerOptions sopts;
  sopts.shards = 4;
  sopts.closed_loop = true;
  async::ShardedParamServer server(opt, sopts);

  std::vector<dist::ChannelWorker> workers;
  workers.push_back(make_quad_worker(123));
  dist::ChannelRunOptions ropts;
  ropts.steps_per_worker = steps;

  EngineRun out;
  if (over_socket) {
    dist::MasterServer net(server);
    dist::RemoteParamClient client(kHost, net.port());
    workers[0].channel = &client;
    out.result = dist::run_channel_workers(workers, ropts);
    client.shutdown();
    EXPECT_TRUE(net.wait_for_clients(1, std::chrono::seconds(10)));
    net.shutdown();
  } else {
    dist::InprocChannel channel(server);
    workers[0].channel = &channel;
    out.result = dist::run_channel_workers(workers, ropts);
  }
  out.final_values = flat_values(master);
  return out;
}

}  // namespace

// The tentpole pin: one worker, socket vs in-process, closed-loop
// YellowFin -- the trajectories must be IDENTICAL, not merely close.
// EXPECT_EQ on doubles, per the repo's trajectory-pinning discipline.
TEST(DistEngine, OneWorkerSocketTrajectoryBitIdenticalToInproc) {
  const int steps = 40;
  const EngineRun inproc = run_engine(false, steps);
  const EngineRun socket = run_engine(true, steps);
  ASSERT_EQ(inproc.final_values.size(), socket.final_values.size());
  for (std::size_t i = 0; i < inproc.final_values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(inproc.final_values[i]),
              std::bit_cast<std::uint64_t>(socket.final_values[i]))
        << "values diverge at flat index " << i;
  }
  // The ApplyStats stream (update order, measured/applied momentum) must
  // match too -- the worker saw the same replies either way.
  ASSERT_EQ(inproc.result.stats.size(), socket.result.stats.size());
  for (std::size_t i = 0; i < inproc.result.stats.size(); ++i) {
    EXPECT_EQ(inproc.result.stats[i].update_index, socket.result.stats[i].update_index);
    EXPECT_EQ(inproc.result.stats[i].applied_momentum, socket.result.stats[i].applied_momentum);
    EXPECT_EQ(inproc.result.stats[i].mu_hat_total.has_value(),
              socket.result.stats[i].mu_hat_total.has_value());
    if (inproc.result.stats[i].mu_hat_total) {
      EXPECT_EQ(*inproc.result.stats[i].mu_hat_total, *socket.result.stats[i].mu_hat_total);
    }
    EXPECT_EQ(inproc.result.losses[i], socket.result.losses[i]);
  }
}

TEST(DistEngine, RunChannelWorkersRejectsNegativeStepCount) {
  auto master = make_params(kShapes, 77);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(master, 0.05, 0.5);
  async::ShardedParamServer server(opt, {});
  dist::InprocChannel channel(server);
  std::vector<dist::ChannelWorker> workers;
  workers.push_back(make_quad_worker(123));
  workers[0].channel = &channel;
  dist::ChannelRunOptions ropts;
  ropts.steps_per_worker = -1;
  try {
    (void)dist::run_channel_workers(workers, ropts);
    FAIL() << "a negative step count must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("steps_per_worker"), std::string::npos) << e.what();
  }
  EXPECT_EQ(server.updates(), 0);
}

TEST(DistEngine, HelloHandshakeReportsMasterGeometry) {
  auto master = make_params(kShapes, 7);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(master, 0.05, 0.5);
  async::ParamServerOptions sopts;
  sopts.shards = 3;
  async::ShardedParamServer server(opt, sopts);
  dist::MasterServer net(server);
  dist::RemoteParamClient client(kHost, net.port());
  EXPECT_EQ(client.size(), server.size());
  EXPECT_EQ(client.shard_count(), server.shard_count());
  client.shutdown();
  net.shutdown();
}

// Two real clients, real sockets, closed-loop momentum: the bowl loss
// must collapse and every pushed gradient must be applied exactly once.
TEST(DistEngine, TwoClientsConvergeAndShutDownCleanly) {
  const std::int64_t dim = 64;
  const double mu_target = 0.5;
  ag::Variable master_x(t::Tensor::full({dim}, 1.5), true);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(std::vector<ag::Variable>{master_x}, 0.05,
                                                      mu_target);
  async::ParamServerOptions sopts;
  sopts.shards = 4;
  sopts.closed_loop = true;
  sopts.mu_target = mu_target;
  async::ShardedParamServer server(opt, sopts);
  dist::MasterServer net(server);

  const int steps = 30;
  std::vector<std::unique_ptr<dist::RemoteParamClient>> clients;
  std::vector<dist::ChannelWorker> workers;
  for (std::uint64_t w = 0; w < 2; ++w) {
    clients.push_back(std::make_unique<dist::RemoteParamClient>(kHost, net.port()));
    ag::Variable x(t::Tensor::full({dim}, 1.5), true);
    auto rng = std::make_shared<t::Rng>(40 + w);
    dist::ChannelWorker worker;
    worker.channel = clients.back().get();
    worker.params = {x};
    worker.grad_fn = [x, rng] {
      auto g = x.node()->ensure_grad().data();
      const auto v = x.value().data();
      double loss = 0.0;
      for (std::size_t j = 0; j < g.size(); ++j) {
        loss += 0.5 * v[j] * v[j];
        g[j] = v[j] + 0.05 * rng->normal();
      }
      return loss;
    };
    workers.push_back(std::move(worker));
  }
  dist::ChannelRunOptions ropts;
  ropts.steps_per_worker = steps;
  const auto run = dist::run_channel_workers(workers, ropts);

  EXPECT_EQ(run.total_updates, 2 * steps);
  EXPECT_EQ(server.updates(), 2 * steps);
  ASSERT_FALSE(run.losses.empty());
  // 60 momentum updates on a unit bowl from 1.5: the loss collapses.
  EXPECT_LT(run.losses.back(), run.losses.front() / 10.0);
  EXPECT_NE(clients[0]->worker_id(), clients[1]->worker_id());

  for (auto& c : clients) c->shutdown();
  EXPECT_TRUE(net.wait_for_clients(2, std::chrono::seconds(10)));
  const auto stats = net.stats();
  // Applied pushes never inflate, chaos or not: that IS exactly-once.
  EXPECT_EQ(stats.pushes, 2 * steps);
  EXPECT_GE(stats.connections, 2);
  if (!chaos_active()) {
    EXPECT_EQ(stats.connections, 2);
    EXPECT_EQ(stats.clean_shutdowns, 2);
    EXPECT_EQ(stats.pulls, 2 * steps);
    EXPECT_EQ(stats.errors, 0);
    EXPECT_EQ(stats.disconnects, 0);
    EXPECT_EQ(stats.retried_pushes, 0);
    EXPECT_EQ(stats.deduped_pushes, 0);
  }
  net.shutdown();
  EXPECT_TRUE(net.stopped());
}

// ---------------------------------------------------------------------------
// Protocol violations: the master answers with a kError frame carrying a
// message, then drops the connection.
// ---------------------------------------------------------------------------

namespace {

/// v1 kHello payload: the worker id this endpoint claims (0: assign me).
std::vector<std::byte> hello_payload(std::uint64_t worker_id = 0) {
  std::vector<std::byte> p;
  dist::PayloadWriter out(p);
  out.u64(worker_id);
  return p;
}

/// Raw-socket helper: send one frame, read one frame back.
dist::FrameHeader raw_round_trip(dist::TcpStream& stream, dist::Op op,
                                 std::span<const std::byte> payload, std::vector<std::byte>& reply) {
  std::vector<std::byte> scratch;
  dist::write_frame(stream, op, payload, scratch);
  dist::FrameHeader header;
  if (!dist::read_frame(stream, header, reply)) {
    throw dist::WireError("master closed without replying");
  }
  return header;
}

struct ErrorFixture {
  ErrorFixture() {
    auto params = make_params(kShapes, 5);
    opt = std::make_shared<yf::optim::MomentumSGD>(params, 0.05, 0.5);
    server = std::make_unique<async::ShardedParamServer>(opt);
    net = std::make_unique<dist::MasterServer>(*server);
  }
  std::shared_ptr<yf::optim::Optimizer> opt;
  std::unique_ptr<async::ShardedParamServer> server;
  std::unique_ptr<dist::MasterServer> net;
};

}  // namespace

TEST(DistEngine, PullBeforeHelloGetsErrorFrame) {
  ErrorFixture fx;
  auto stream = dist::TcpStream::connect(kHost, fx.net->port(), std::chrono::seconds(5));
  std::vector<std::byte> reply;
  const auto header = raw_round_trip(stream, dist::Op::kPull, {}, reply);
  ASSERT_EQ(header.op, dist::Op::kError);
  dist::PayloadReader in(reply);
  EXPECT_NE(in.str().find("before hello"), std::string::npos);
  // The violation is connection-fatal: the stream reads EOF next.
  dist::FrameHeader next;
  EXPECT_FALSE(dist::read_frame(stream, next, reply));
  fx.net->shutdown();
  EXPECT_EQ(fx.net->stats().errors, 1);
}

TEST(DistEngine, PushWithWrongShardCountGetsErrorFrame) {
  ErrorFixture fx;
  auto stream = dist::TcpStream::connect(kHost, fx.net->port(), std::chrono::seconds(5));
  std::vector<std::byte> reply;
  const auto hello = hello_payload();
  ASSERT_EQ(raw_round_trip(stream, dist::Op::kHello, hello, reply).op, dist::Op::kHelloAck);
  std::vector<std::byte> bad;
  dist::PayloadWriter out(bad);
  out.u64(0);   // push seq 0: unsequenced
  out.u64(99);  // claims 99 shard versions; the master has 4 shards
  const auto header = raw_round_trip(stream, dist::Op::kPush, bad, reply);
  ASSERT_EQ(header.op, dist::Op::kError);
  dist::PayloadReader in(reply);
  EXPECT_NE(in.str().find("shard"), std::string::npos);
  fx.net->shutdown();
  EXPECT_EQ(fx.net->stats().errors, 1);
}

TEST(DistEngine, TruncatedPushPayloadGetsErrorFrame) {
  ErrorFixture fx;
  auto stream = dist::TcpStream::connect(kHost, fx.net->port(), std::chrono::seconds(5));
  std::vector<std::byte> reply;
  const auto hello = hello_payload();
  ASSERT_EQ(raw_round_trip(stream, dist::Op::kHello, hello, reply).op, dist::Op::kHelloAck);
  std::vector<std::byte> bad;
  dist::PayloadWriter out(bad);
  out.u64(0);  // push seq 0: unsequenced
  out.u64(static_cast<std::uint64_t>(fx.server->shard_count()));
  // ...but no versions and no gradient: a payload underrun on dispatch.
  EXPECT_EQ(raw_round_trip(stream, dist::Op::kPush, bad, reply).op, dist::Op::kError);
  fx.net->shutdown();
}

// ---------------------------------------------------------------------------
// Shutdown contracts (the drain-on-shutdown idiom, both sides).
// ---------------------------------------------------------------------------

TEST(DistEngine, ClientShutdownIsIdempotentAndPinsPostShutdownCalls) {
  ErrorFixture fx;
  auto client = std::make_unique<dist::RemoteParamClient>(kHost, fx.net->port());
  client->shutdown();
  client->shutdown();  // idempotent
  EXPECT_TRUE(client->stopped());
  std::vector<double> buf(static_cast<std::size_t>(client->size()));
  async::PullTicket ticket;
  EXPECT_THROW(client->pull(buf, ticket), std::logic_error);
  EXPECT_THROW(client->push(buf, ticket), std::logic_error);
  EXPECT_TRUE(fx.net->wait_for_clients(1, std::chrono::seconds(10)));
}

TEST(DistEngine, MasterShutdownDrainsAndPinsPostShutdownCalls) {
  ErrorFixture fx;
  // Bounded patience: once the master is gone for good, the reconnect
  // loop must give up in well under a second, not the production default.
  dist::ClientOptions copts;
  copts.host = kHost;
  copts.port = fx.net->port();
  copts.connect_retry_for = std::chrono::milliseconds(200);
  copts.max_attempts = 2;
  dist::RemoteParamClient client(copts);
  // Shut the master down while a client conversation is idle-open: the
  // drain closes the connection, and the client's next round trip fails
  // loudly instead of hanging.
  fx.net->shutdown();
  EXPECT_TRUE(fx.net->stopped());
  std::vector<double> buf(static_cast<std::size_t>(client.size()));
  async::PullTicket ticket;
  EXPECT_THROW(client.pull(buf, ticket), std::exception);
  EXPECT_THROW(fx.net->wait_for_clients(1, std::chrono::seconds(1)), std::logic_error);
  fx.net->shutdown();  // idempotent
}
