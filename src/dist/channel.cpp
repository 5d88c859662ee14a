#include "dist/channel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "autograd/tape.hpp"
#include "core/arena.hpp"
#include "core/env.hpp"
#include "core/parallel.hpp"

namespace yf::dist {

Engine channel_engine_from_env() {
  const std::string v = core::env_str("YF_ENGINE", "inproc");
  if (v == "socket") return Engine::kSocket;
  // "sync" and "server" are the bench harness's names for the two
  // in-process engines; both live on the inproc side of the channel.
  if (v == "inproc" || v == "sync" || v == "server") return Engine::kInproc;
  std::fprintf(stderr, "yf: unknown YF_ENGINE \"%s\" (want inproc|socket), using inproc\n",
               v.c_str());
  return Engine::kInproc;
}

const char* engine_name(Engine engine) {
  return engine == Engine::kSocket ? "socket" : "inproc";
}

async::ServerRunResult run_channel_workers(const std::vector<ChannelWorker>& workers,
                                           const ChannelRunOptions& opts) {
  if (workers.empty()) throw std::invalid_argument("run_channel_workers: no workers");
  if (opts.steps_per_worker < 0) {
    throw std::invalid_argument("run_channel_workers: steps_per_worker must be >= 0");
  }
  for (const ChannelWorker& w : workers) {
    if (w.channel == nullptr) {
      throw std::invalid_argument("run_channel_workers: worker without a channel");
    }
  }

  struct PerWorker {
    std::vector<async::ApplyStats> stats;
    std::vector<double> losses;
    std::exception_ptr error;
  };
  std::vector<PerWorker> collected(workers.size());

  // Plain threads, not the compute pool: workers park in socket reads
  // and on shard locks, and parked pool workers would starve the kernels
  // the pool runs -- or deadlock a caller that is itself a pool task. A
  // worker already owns a thread, so its kernels run inline on it.
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (std::size_t w = 0; w < workers.size(); ++w) {
    threads.emplace_back([&workers, &collected, &opts, w] {
      core::detail::mark_thread_inline();
      PerWorker& out = collected[w];
      try {
        const ChannelWorker& worker = workers[w];
        core::ParamArena replica(worker.params);
        if (replica.size() != worker.channel->size()) {
          throw std::invalid_argument("run_channel_workers: replica size != master size");
        }
        autograd::GraphTape tape;
        autograd::TapeScope tape_scope(&tape);
        out.stats.reserve(static_cast<std::size_t>(opts.steps_per_worker));
        out.losses.reserve(static_cast<std::size_t>(opts.steps_per_worker));
        async::PullTicket ticket;
        for (std::int64_t s = 0; s < opts.steps_per_worker; ++s) {
          worker.channel->pull(replica.values(), ticket);
          replica.zero_grads();
          tape.begin_step();
          const double loss = worker.grad_fn();
          if (opts.compute_delay_us > 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(opts.compute_delay_us));
          }
          out.stats.push_back(worker.channel->push(replica.grads(), ticket));
          out.losses.push_back(loss);
        }
      } catch (...) {
        out.error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const PerWorker& per : collected) {
    if (per.error) std::rethrow_exception(per.error);
  }

  std::vector<std::pair<async::ApplyStats, double>> merged;
  merged.reserve(workers.size() * static_cast<std::size_t>(opts.steps_per_worker));
  for (const PerWorker& per : collected) {
    for (std::size_t i = 0; i < per.stats.size(); ++i) {
      merged.emplace_back(per.stats[i], per.losses[i]);
    }
  }
  std::sort(merged.begin(), merged.end(), [](const auto& a, const auto& b) {
    return a.first.update_index < b.first.update_index;
  });

  async::ServerRunResult result;
  result.stats.reserve(merged.size());
  result.losses.reserve(merged.size());
  std::int64_t max_index = 0;
  for (auto& [stats, loss] : merged) {
    max_index = std::max(max_index, stats.update_index);
    result.stats.push_back(stats);
    result.losses.push_back(loss);
  }
  result.total_updates = max_index;
  return result;
}

}  // namespace yf::dist

namespace yf::async {

// Declared in async/param_server.hpp; defined here, beside the loop it
// delegates to, so src/async includes nothing from src/dist.
ServerRunResult run_workers(ShardedParamServer& server, const std::vector<ServerWorker>& workers,
                            const ServerRunOptions& opts) {
  const tensor::Tensor& master_values = server.optimizer().arena().values_tensor();
  std::vector<dist::InprocChannel> channels;
  channels.reserve(workers.size());  // stable addresses for the workers below
  std::vector<dist::ChannelWorker> channel_workers;
  channel_workers.reserve(workers.size());
  for (const ServerWorker& worker : workers) {
    // A worker training on the master's own parameters would bypass every
    // shard lock.
    for (const autograd::Variable& p : worker.params) {
      if (p.defined() && p.value().shares_storage_with(master_values)) {
        throw std::invalid_argument("run_workers: worker params alias the master arena");
      }
    }
    channels.emplace_back(server);
    channel_workers.push_back({&channels.back(), worker.params, worker.grad_fn});
  }
  return dist::run_channel_workers(channel_workers, opts);
}

}  // namespace yf::async
