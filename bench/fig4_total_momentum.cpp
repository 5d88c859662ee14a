// Figure 4: total-momentum measurement under YellowFin.
//   left    synchronous: measured total momentum == algorithmic momentum
//   middle  N async workers: measured total momentum > target (asynchrony
//           adds momentum)
//   right   closed-loop YellowFin lowers algorithmic momentum (possibly
//           below zero) until total momentum matches the target.
//
// One worker-count config drives BOTH asynchrony engines: the
// deterministic round-robin simulator (staleness = workers - 1, scripted)
// and the sharded parameter server (real threads over YF_SHARDS shards,
// emergent staleness). The server panes use the same CNN task with one
// model replica per worker.
#include <algorithm>
#include <cstdio>

#include "async/async_simulator.hpp"
#include "async/param_server.hpp"
#include "common.hpp"

namespace train = yf::train;

namespace {

struct Config {
  std::int64_t workers;     ///< round-robin slots (sim) / real threads (server)
  bool closed_loop;
  std::int64_t iterations;  ///< total gradient applications
};

struct Series {
  std::vector<double> target, total, algorithmic;

  void append(double tgt, std::optional<double> mu_hat, double applied, double& smoothed,
              bool& init) {
    if (!mu_hat) return;
    smoothed = init ? 0.95 * smoothed + 0.05 * (*mu_hat) : *mu_hat;
    init = true;
    target.push_back(tgt);
    total.push_back(smoothed);
    algorithmic.push_back(applied);
  }
};

yf::tuner::YellowFinOptions tuner_options() {
  return {};  // paper defaults; quick-mode horizon handled by iteration count
}

Series run_sim(const Config& cfg) {
  auto task = yfb::make_cifar_task(3, 1);
  auto opt = std::make_shared<yf::tuner::YellowFin>(task.params, tuner_options());
  yf::async::AsyncTrainerOptions aopts;
  aopts.staleness = cfg.workers - 1;
  aopts.closed_loop = cfg.closed_loop;
  yf::async::AsyncTrainer trainer(opt, task.grad_fn, aopts);

  Series s;
  double smoothed = 0.0;
  bool init = false;
  for (std::int64_t it = 0; it < cfg.iterations; ++it) {
    const auto stats = trainer.step();
    s.append(stats.target_momentum, stats.mu_hat_total, stats.applied_momentum, smoothed, init);
  }
  return s;
}

Series run_server(const Config& cfg) {
  auto master = yfb::make_cifar_task(3, 1);
  auto opt = std::make_shared<yf::tuner::YellowFin>(master.params, tuner_options());
  yf::async::ParamServerOptions sopts;
  sopts.shards = yfb::server_shards();
  sopts.closed_loop = cfg.closed_loop;
  yf::async::ShardedParamServer server(opt, sopts);

  std::vector<yf::async::ServerWorker> workers;
  workers.reserve(static_cast<std::size_t>(cfg.workers));
  for (std::int64_t w = 0; w < cfg.workers; ++w) {
    auto task = yfb::make_cifar_task(3, 1 + 100000 * static_cast<std::uint64_t>(w + 1));
    workers.push_back({std::move(task.params), std::move(task.grad_fn)});
  }
  yf::async::ServerRunOptions ropts;
  ropts.steps_per_worker = std::max<std::int64_t>(1, cfg.iterations / cfg.workers);
  ropts.compute_delay_us = 200;  // keep pulls and pushes overlapping
  const auto run = yf::async::run_workers(server, workers, ropts);

  Series s;
  double smoothed = 0.0;
  bool init = false;
  for (const auto& stats : run.stats) {  // already sorted by apply order
    s.append(stats.target_momentum, stats.mu_hat_total, stats.applied_momentum, smoothed, init);
  }
  return s;
}

double tail_mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  const std::size_t start = v.size() / 2;
  for (std::size_t i = start; i < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - start);
}

void report(const char* engine, const Series& sync, const Series& open, const Series& closed) {
  train::print_series(std::string(engine) + " sync: measured total mu", sync.total, 8);
  train::print_series(std::string(engine) + " async: target mu", open.target, 8);
  train::print_series(std::string(engine) + " async: measured total mu", open.total, 8);
  train::print_series(std::string(engine) + " closed-loop: measured total mu", closed.total, 8);
  train::print_series(std::string(engine) + " closed-loop: algorithmic mu", closed.algorithmic,
                      8);
  const double sync_gap = tail_mean(sync.total) - tail_mean(sync.target);
  const double open_gap = tail_mean(open.total) - tail_mean(open.target);
  const double closed_gap = tail_mean(closed.total) - tail_mean(closed.target);
  std::printf("\n  [%s] steady-state (total - target): sync %+0.3f | async %+0.3f | "
              "closed %+0.3f\n",
              engine, sync_gap, open_gap, closed_gap);
  std::printf("  [%s] closed-loop algorithmic momentum (tail mean): %+0.3f\n\n", engine,
              tail_mean(closed.algorithmic));
}

}  // namespace

int main() {
  const std::int64_t iterations = yfb::iters(700, 40000);
  // At least one worker, as yfb::server_workers() clamps: zero workers
  // would ask the simulator for staleness -1.
  const std::int64_t workers = std::max<std::int64_t>(1, yfb::env_int("YF_WORKERS", 16));
  std::printf("Figure 4: total momentum dynamics (CNN task, %lld applications, %lld workers)\n",
              static_cast<long long>(iterations), static_cast<long long>(workers));

  const Config sync_cfg{1, false, iterations};
  const Config open_cfg{workers, false, iterations};
  const Config closed_cfg{workers, true, iterations};

  // Pane set 1: deterministic round-robin simulator (scripted staleness).
  const auto sim_sync = run_sim(sync_cfg);
  const auto sim_open = run_sim(open_cfg);
  const auto sim_closed = run_sim(closed_cfg);
  report("sim", sim_sync, sim_open, sim_closed);

  // Pane set 2: sharded parameter server (emergent staleness, real threads).
  const auto srv_sync = run_server(sync_cfg);
  const auto srv_open = run_server(open_cfg);
  const auto srv_closed = run_server(closed_cfg);
  report("server", srv_sync, srv_open, srv_closed);

  train::write_csv("fig4_total_momentum.csv",
                   {"sim_sync_total", "sim_async_target", "sim_async_total",
                    "sim_closed_total", "sim_closed_algorithmic", "srv_sync_total",
                    "srv_async_target", "srv_async_total", "srv_closed_total",
                    "srv_closed_algorithmic"},
                   {sim_sync.total, sim_open.target, sim_open.total, sim_closed.total,
                    sim_closed.algorithmic, srv_sync.total, srv_open.target, srv_open.total,
                    srv_closed.total, srv_closed.algorithmic});
  std::printf("Wrote fig4_total_momentum.csv\n");
  std::printf("\nShape check (paper): sync gap ~ 0; async gap >> 0; closed-loop gap ~ 0 with\n"
              "algorithmic momentum pushed below the target -- on both engines.\n");
  return 0;
}
