// Microbenchmark (google-benchmark): sharded parameter-server apply
// throughput as a function of shard count and concurrent workers.
//
// Each measured iteration launches `workers` pool tasks that all run a
// fixed number of pull -> push rounds against one server (momentum SGD
// over a flat dim-N arena). With one shard, every pull and push
// serializes on a single lock (the historical hogwild server); more
// shards let one worker's sweep over shard k overlap another worker's
// copy into shard k+1, so contention drops as K grows. The *Measured
// variant adds the per-shard iterate history + Eq. 37 ratio extraction,
// pricing the total-momentum measurement hook. BM_ServerPushClosedLoop
// times one push at the async_socket workload's shape: one worker,
// YellowFin with the closed loop on, the TS-sub arena's 4,925 scalars.
#include <benchmark/benchmark.h>

#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "async/param_server.hpp"
#include "common.hpp"
#include "core/parallel.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

namespace {

namespace ag = yf::autograd;
namespace async = yf::async;
namespace t = yf::tensor;

constexpr std::int64_t kDim = 1 << 15;        // 32k parameters
constexpr std::int64_t kPushesPerWorker = 8;  // rounds per measured iteration

void run_rounds(async::ShardedParamServer& server, std::int64_t workers) {
  auto& pool = yf::core::ThreadPool::instance();
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(workers));
  for (std::int64_t w = 0; w < workers; ++w) {
    futures.push_back(pool.submit([&server, w] {
      t::Rng rng(static_cast<std::uint64_t>(w) + 1);
      std::vector<double> values(static_cast<std::size_t>(server.size()));
      std::vector<double> grad(static_cast<std::size_t>(server.size()));
      for (auto& g : grad) g = 0.01 * rng.normal();
      for (std::int64_t p = 0; p < kPushesPerWorker; ++p) {
        const auto ticket = server.pull(values);
        server.push(grad, ticket);
      }
    }));
  }
  for (auto& f : futures) f.get();
}

void bench_server(benchmark::State& state, bool measure) {
  const std::int64_t shards = state.range(0);
  const std::int64_t workers = state.range(1);
  t::Rng rng(7);
  ag::Variable master(rng.normal_tensor({kDim}), true);
  auto opt = std::make_shared<yf::optim::MomentumSGD>(std::vector<ag::Variable>{master},
                                                      1e-4, 0.9);
  async::ParamServerOptions opts;
  opts.shards = shards;
  opts.measure = measure;
  opts.history = 8;  // enough for Eq. 37 at bench staleness
  async::ShardedParamServer server(opt, opts);
  for (auto _ : state) {
    run_rounds(server, workers);
  }
  state.SetItemsProcessed(state.iterations() * workers * kPushesPerWorker);
  state.SetBytesProcessed(state.iterations() * workers * kPushesPerWorker * kDim *
                          static_cast<std::int64_t>(sizeof(double)));
  state.counters["shards"] = static_cast<double>(server.shard_count());
  state.counters["updates"] = static_cast<double>(server.updates());
}

void BM_ServerPush(benchmark::State& state) { bench_server(state, /*measure=*/false); }
void BM_ServerPushMeasured(benchmark::State& state) { bench_server(state, /*measure=*/true); }

BENCHMARK(BM_ServerPush)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 4}})
    ->ArgNames({"shards", "workers"})
    ->UseRealTime();
BENCHMARK(BM_ServerPushMeasured)
    ->ArgsProduct({{1, 4, 8}, {4}})
    ->ArgNames({"shards", "workers"})
    ->UseRealTime();

/// One worker's closed-loop YellowFin push over the TS-sub arena's 4,925
/// scalars in 4 shards with measurement on (history 64), as the
/// async_socket master applies it. With one worker every push's Eq. 37
/// ratios are near-ties around the applied momentum, the case that costs
/// a branching median selection most. The worker's gradient is that of
/// 0.5 * |x|^2 plus one of 16 fixed noise vectors, so the iterates keep
/// moving; only the push is timed.
void BM_ServerPushClosedLoop(benchmark::State& state) {
  constexpr std::int64_t kArena = 4925;
  constexpr std::size_t kNoiseVectors = 16;
  t::Rng rng(7);
  ag::Variable master(rng.normal_tensor({kArena}), true);
  yf::tuner::YellowFinOptions yopts;
  yopts.beta = 0.995;
  yopts.slow_start_iters = 50;
  auto opt =
      std::make_shared<yf::tuner::YellowFin>(std::vector<ag::Variable>{master}, yopts);
  async::ParamServerOptions opts;
  opts.shards = 4;
  opts.measure = true;
  opts.closed_loop = true;
  opts.history = 64;
  async::ShardedParamServer server(opt, opts);

  std::vector<std::vector<double>> noise(kNoiseVectors,
                                         std::vector<double>(static_cast<std::size_t>(kArena)));
  for (auto& n : noise) {
    for (auto& v : n) v = 0.1 * rng.normal();
  }
  std::vector<double> values(static_cast<std::size_t>(kArena));
  std::vector<double> grad(values.size());
  async::PullTicket ticket;
  std::size_t round = 0;
  std::int64_t estimates = 0;
  for (auto _ : state) {
    server.pull(values, ticket);
    const auto& n = noise[round++ % kNoiseVectors];
    for (std::size_t i = 0; i < grad.size(); ++i) grad[i] = values[i] + n[i];
    const auto start = std::chrono::steady_clock::now();
    auto stats = server.push(grad, ticket);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(stats);
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    estimates += stats.mu_hat_total ? 1 : 0;
  }
  state.counters["estimates"] = static_cast<double>(estimates);
  state.counters["updates"] = static_cast<double>(server.updates());
}

BENCHMARK(BM_ServerPushClosedLoop)->UseManualTime();

}  // namespace

int main(int argc, char** argv) {
  return yfb::benchmark_main_with_json(argc, argv, "micro_param_server");
}
