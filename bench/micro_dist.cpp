// Microbenchmark (google-benchmark): socket-transport pull/push cost vs
// the in-process channel (DESIGN.md §12).
//
// Each measured iteration is one full worker round: pull the parameters,
// push a gradient, get the ApplyStats reply. The in-process channel
// prices the ShardedParamServer arithmetic alone; the socket channel adds
// two localhost frame round trips (serialize, XXH64 checksum both ways,
// TCP_NODELAY loopback), so the delta IS the transport overhead the
// distributed engine pays per update. Bytes/s counts the payload doubles
// moved both directions, which is the number to watch when sizing a
// deployment's network budget.
//
// The socket bench sweeps a second `faultplan` axis (DESIGN.md §14):
// 0 runs the bare transport, 1 arms a seeded zero-probability
// FaultInjector on both endpoints. No fault ever fires, so the delta
// between the two prices the injection machinery itself -- the per-frame
// decision draw plus the FaultyStream indirection -- which is what chaos
// CI pays on every frame.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "async/param_server.hpp"
#include "common.hpp"
#include "dist/channel.hpp"
#include "dist/client.hpp"
#include "dist/fault.hpp"
#include "dist/master.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/random.hpp"

namespace {

namespace ag = yf::autograd;
namespace async = yf::async;
namespace dist = yf::dist;
namespace t = yf::tensor;

struct Fixture {
  explicit Fixture(std::int64_t dim) {
    t::Rng rng(7);
    ag::Variable master(rng.normal_tensor({dim}), true);
    opt = std::make_shared<yf::optim::MomentumSGD>(std::vector<ag::Variable>{master}, 1e-4, 0.9);
    async::ParamServerOptions sopts;
    sopts.shards = 4;
    server = std::make_unique<async::ShardedParamServer>(opt, sopts);
    values.resize(static_cast<std::size_t>(dim));
    grad.resize(static_cast<std::size_t>(dim));
    for (auto& g : grad) g = 0.01 * rng.normal();
  }

  std::shared_ptr<yf::optim::Optimizer> opt;
  std::unique_ptr<async::ShardedParamServer> server;
  std::vector<double> values;
  std::vector<double> grad;
  async::PullTicket ticket;
};

void run_rounds(benchmark::State& state, Fixture& fx, dist::ParamChannel& channel,
                std::int64_t dim) {
  for (auto _ : state) {
    channel.pull(fx.values, fx.ticket);
    const auto stats = channel.push(fx.grad, fx.ticket);
    benchmark::DoNotOptimize(stats.update_index);
  }
  state.SetItemsProcessed(state.iterations());
  // One round moves the arena down (pull) and a gradient up (push).
  state.SetBytesProcessed(state.iterations() * dim * 2 *
                          static_cast<std::int64_t>(sizeof(double)));
  state.counters["dim"] = static_cast<double>(dim);
}

void BM_DistRoundTripInproc(benchmark::State& state) {
  const std::int64_t dim = state.range(0);
  Fixture fx(dim);
  dist::InprocChannel channel(*fx.server);
  run_rounds(state, fx, channel, dim);
}

void BM_DistRoundTripSocket(benchmark::State& state) {
  const std::int64_t dim = state.range(0);
  const bool armed = state.range(1) != 0;
  Fixture fx(dim);
  // Zero-probability plans: next() is drawn for every frame but always
  // decides kNone, so the bench measures pure machinery overhead.
  dist::FaultInjector master_inj{dist::FaultPlan::parse("seed=42")};
  dist::FaultInjector client_inj{dist::FaultPlan::parse("seed=43")};
  dist::MasterOptions mopts;
  if (armed) mopts.injector = &master_inj;
  dist::MasterServer net(*fx.server, mopts);
  dist::ClientOptions copts;
  copts.port = net.port();
  if (armed) copts.injector = &client_inj;
  dist::RemoteParamClient client(copts);
  run_rounds(state, fx, client, dim);
  client.shutdown();
  net.shutdown();
}

BENCHMARK(BM_DistRoundTripInproc)->Arg(1 << 10)->Arg(1 << 15)->ArgNames({"dim"})->UseRealTime();
BENCHMARK(BM_DistRoundTripSocket)
    ->Args({1 << 10, 0})
    ->Args({1 << 10, 1})
    ->Args({1 << 15, 0})
    ->ArgNames({"dim", "faultplan"})
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return yfb::benchmark_main_with_json(argc, argv, "micro_dist");
}
