// Shared bench harness helpers: workload builders and optimizer factories.
//
// Every bench binary runs a "quick" protocol by default (single seed,
// reduced grids and iteration budgets, small models) so the whole bench
// directory executes in minutes; set YF_FULL=1 for the paper-protocol
// scale (3 seeds, full learning-rate grids, larger budgets).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "async/param_server.hpp"
#include "core/env.hpp"
#include "core/kernels/backend.hpp"
#include "autograd/ops.hpp"
#include "data/bracket_lang.hpp"
#include "data/copy_translate.hpp"
#include "data/markov_text.hpp"
#include "data/synth_cifar.hpp"
#include "data/zipf_text.hpp"
#include "nn/language_model.hpp"
#include "nn/resnet.hpp"
#include "nn/seq2seq.hpp"
#include "optim/adagrad.hpp"
#include "optim/adam.hpp"
#include "optim/momentum_sgd.hpp"
#include "optim/sgd.hpp"
#include "train/grid_search.hpp"
#include "train/metrics.hpp"
#include "train/reporting.hpp"
#include "train/trainer.hpp"
#include "tuner/yellowfin.hpp"

namespace yfb {

inline bool full_mode() {
  // Routed through core::env_str like every other knob (README operator
  // table): YF_FULL is a strict "1", anything else is quick mode.
  return yf::core::env_str("YF_FULL", "0") == "1";
}

inline std::string env_or(const char* name, const std::string& fallback) {
  return yf::core::env_str(name, fallback.c_str());
}

}  // namespace yfb

// ---------------------------------------------------------------------------
// Machine-readable bench output: JsonReporter mirrors the console output
// of the google-benchmark micro benches into BENCH_<name>.json (benchmark
// name, shape, ns/op, backend, git sha) so CI can archive the perf
// trajectory and gate regressions (bench/check_regression.py). Guarded on
// the header so the plain-main fig/table benches, which include this file
// but do not link google-benchmark, still build without it.
// ---------------------------------------------------------------------------
#if __has_include(<benchmark/benchmark.h>)
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string_view>

#include "core/kernels/kernel_table.hpp"

namespace yfb {

/// Makes the kernel table `name` ("scalar", "avx2" or "avx512") active for
/// one benchmark run and labels the run with it, restoring the previous
/// table on destruction. Converts to false, after flagging the run
/// skipped, when the build or the CPU cannot run that table.
class TableScope {
 public:
  TableScope(benchmark::State& state, std::string_view name) {
    for (const auto& runnable : yf::core::detail::runnable_tables()) {
      if (name == runnable.name) {
        scope_ = std::make_unique<yf::core::detail::ActiveTableScope>(*runnable.table);
      }
    }
    if (!scope_) {
      state.SkipWithError("kernel table not runnable on this machine");
      return;
    }
    state.SetLabel(std::string(name));
  }
  explicit operator bool() const { return scope_ != nullptr; }

 private:
  std::unique_ptr<yf::core::detail::ActiveTableScope> scope_;
};

class JsonReporter : public benchmark::ConsoleReporter {
 public:
  JsonReporter(std::string bench_name, OutputOptions options)
      : benchmark::ConsoleReporter(options), bench_(std::move(bench_name)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      // Runs skipped via SkipWithError (e.g. simd benches on a machine
      // without AVX2) report zero iterations; recording them would bake
      // ns_per_op=0 into the JSON and poison the regression baselines.
      if (run.iterations <= 0 || run.real_accumulated_time <= 0.0) continue;
      Entry entry;
      entry.name = run.benchmark_name();
      entry.shape = run.run_name.args;
      // Benches that flip kernel backends label each run; otherwise the
      // process-wide active backend applies.
      entry.backend =
          run.report_label.empty() ? yf::core::active_kernel_backend_name() : run.report_label;
      entry.iterations = run.iterations;
      entry.ns_per_op = run.iterations > 0
                            ? run.real_accumulated_time / static_cast<double>(run.iterations) * 1e9
                            : 0.0;
      const auto items = run.counters.find("items_per_second");
      entry.items_per_second =
          items != run.counters.end() ? static_cast<double>(items->second) : 0.0;
      // Any other user counter (per-phase ns, thread counts, ...) is
      // carried into the JSON verbatim so downstream tooling can graph
      // phase breakdowns without reparsing console output.
      for (const auto& [name, counter] : run.counters) {
        if (name == "items_per_second") continue;
        entry.counters.emplace_back(name, static_cast<double>(counter));
      }
      entries_.push_back(std::move(entry));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    const std::string dir = env_or("YF_BENCH_JSON_DIR", ".");
    const std::string path = dir + "/BENCH_" + bench_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::cerr << "JsonReporter: cannot write " << path << "\n";
      return;
    }
    // Env pins win (CI exports the exact commit under test); otherwise
    // fall back to the sha CMake captured at configure time, and only
    // then to "unknown" (non-git checkout, or a non-CMake build).
#ifndef YF_CMAKE_GIT_SHA
#define YF_CMAKE_GIT_SHA "unknown"
#endif
    const std::string sha = env_or("YF_GIT_SHA", env_or("GITHUB_SHA", YF_CMAKE_GIT_SHA));
    out << "{\n";
    out << "  \"bench\": \"" << escape(bench_) << "\",\n";
    out << "  \"git_sha\": \"" << escape(sha) << "\",\n";
    out << "  \"default_backend\": \"" << yf::core::active_kernel_backend_name() << "\",\n";
    out << "  \"kernel_table\": \"" << yf::core::active_kernel_table_name() << "\",\n";
    out << "  \"results\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << (i == 0 ? "\n" : ",\n");
      out << "    {\"name\": \"" << escape(e.name) << "\", \"shape\": \"" << escape(e.shape)
          << "\", \"backend\": \"" << escape(e.backend) << "\", \"ns_per_op\": ";
      write_number(out, e.ns_per_op);
      out << ", \"items_per_second\": ";
      write_number(out, e.items_per_second);
      out << ", \"iterations\": " << e.iterations;
      if (!e.counters.empty()) {
        out << ", \"counters\": {";
        for (std::size_t c = 0; c < e.counters.size(); ++c) {
          out << (c == 0 ? "" : ", ") << "\"" << escape(e.counters[c].first) << "\": ";
          write_number(out, e.counters[c].second);
        }
        out << "}";
      }
      out << "}";
    }
    out << "\n  ]\n}\n";
    std::cout << "JSON written to " << path << "\n";
  }

 private:
  struct Entry {
    std::string name;
    std::string shape;
    std::string backend;
    std::int64_t iterations = 0;
    double ns_per_op = 0.0;
    double items_per_second = 0.0;
    std::vector<std::pair<std::string, double>> counters;  ///< user counters
  };

  /// JSON has no inf/nan literal: a non-finite counter streamed bare
  /// ("ns_per_op": inf) makes the whole file unparseable and used to take
  /// down the regression gate. Emit null instead; check_regression.py
  /// reports null-valued entries as invalid rather than crashing.
  static void write_number(std::ostream& out, double v) {
    if (std::isfinite(v)) {
      out << v;
    } else {
      out << "null";
    }
  }

  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // control chars: drop
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::vector<Entry> entries_;
};

/// The console options for JsonReporter. google-benchmark applies
/// --benchmark_color only to a display reporter it builds itself, so read
/// the flag here, before Initialize() consumes it, as the library does:
/// "auto" (the default) colors a terminal only, and false, no, off, 0, f
/// and n turn color off. Counters stay tabular.
inline benchmark::ConsoleReporter::OutputOptions console_options(int argc, char** argv) {
  constexpr std::string_view kFlag = "--benchmark_color=";
  std::string color = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kFlag)) color = arg.substr(kFlag.size());
  }
  for (char& c : color) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  const bool on = color == "auto" ? isatty(STDOUT_FILENO) != 0
                                  : !(color == "false" || color == "no" || color == "off" ||
                                      color == "0" || color == "f" || color == "n");
  return on ? benchmark::ConsoleReporter::OO_ColorTabular : benchmark::ConsoleReporter::OO_Tabular;
}

/// Drop-in replacement for BENCHMARK_MAIN() that also emits
/// BENCH_<bench_name>.json (to YF_BENCH_JSON_DIR, default cwd).
inline int benchmark_main_with_json(int argc, char** argv, const std::string& bench_name) {
  const auto options = console_options(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonReporter reporter(bench_name, options);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace yfb
#endif  // __has_include(<benchmark/benchmark.h>)

namespace yfb {

// ---------------------------------------------------------------------------
// Engine selection: the same bench configs drive either the synchronous
// trainer ("sync", default) or the sharded parameter server ("server",
// real threads; YF_WORKERS worker replicas over YF_SHARDS shards). With
// one worker the server path reproduces the synchronous trajectory, so
// Table 2 numbers are directly comparable across engines.
// ---------------------------------------------------------------------------

/// YF_ENGINE: "sync" or "server". Any other value warns once and runs
/// sync, as a malformed int knob falls back to its default.
inline std::string engine() {
  const std::string v = yf::core::env_str("YF_ENGINE", "sync");
  if (v == "sync" || v == "server") return v;
  static const bool warned = [&v] {
    std::fprintf(stderr, "yf: ignoring YF_ENGINE=\"%s\": not sync or server, using sync\n",
                 v.c_str());
    return true;
  }();
  (void)warned;
  return "sync";
}

inline std::int64_t env_int(const char* name, std::int64_t fallback) {
  // Checked parse (core/env.hpp): malformed values warn and fall back
  // instead of atoll-ing to 0 workers/shards.
  return yf::core::checked_env_int(name, fallback);
}

inline std::int64_t server_workers() { return std::max<std::int64_t>(1, env_int("YF_WORKERS", 1)); }
inline std::int64_t server_shards() { return std::max<std::int64_t>(1, env_int("YF_SHARDS", 4)); }

inline std::string engine_banner() {
  if (engine() != "server") return "engine: sync";
  return "engine: server (workers " + std::to_string(server_workers()) + ", shards " +
         std::to_string(server_shards()) + ")";
}

/// Iteration budget helper: quick vs full.
inline std::int64_t iters(std::int64_t quick, std::int64_t full) {
  return full_mode() ? full : quick;
}

inline std::vector<std::uint64_t> seeds() {
  return full_mode() ? std::vector<std::uint64_t>{1, 2, 3} : std::vector<std::uint64_t>{1};
}

/// A trainable task: loss/gradient closure over a model's parameters plus
/// an optional validation probe. The model is owned by the closures.
struct ModelTask {
  std::vector<yf::autograd::Variable> params;
  yf::train::GradFn grad_fn;
  std::function<double()> val_fn;  ///< optional (higher is better unless noted)
};

// ---------------------------------------------------------------------------
// Workload builders (DESIGN.md §2 substitutions). `seed` controls both the
// model init and the minibatch stream; the dataset "language"/prototypes
// use fixed seeds so all optimizers see the same task.
// ---------------------------------------------------------------------------

/// SynthCIFAR + MiniResNet ("CIFAR10/100 ResNet" substitute).
///
/// Config validated to reproduce the paper's CNN ordering in quick mode:
/// batch 32 keeps relative gradient variance at CIFAR-like levels (batch
/// sizes below ~8 make every method noise-bound and flip the ordering
/// toward Adam), noise 0.5 keeps the loss from saturating within the
/// horizon, and BN (inside MiniResNet) homogenizes per-layer gradient
/// scales as in the paper's ResNets.
inline ModelTask make_cifar_task(std::int64_t classes, std::uint64_t seed,
                                 std::int64_t batch = 32) {
  auto dataset = std::make_shared<yf::data::SynthCifar>([&] {
    yf::data::SynthCifarConfig cfg;
    cfg.classes = classes;
    cfg.height = 8;
    cfg.width = 8;
    cfg.noise = 0.5;
    cfg.jitter = 0.2;
    cfg.seed = 7;  // fixed task
    return cfg;
  }());
  yf::nn::MiniResNetConfig mc;
  mc.base_channels = 4;
  mc.blocks_per_stage = 1;
  mc.num_classes = classes;
  yf::tensor::Rng model_rng(seed);
  auto model = std::make_shared<yf::nn::MiniResNet>(mc, model_rng);
  auto rng = std::make_shared<yf::tensor::Rng>(seed + 1000);

  ModelTask task;
  task.params = model->parameters();
  task.grad_fn = [dataset, model, rng, batch] {
    const auto b = dataset->sample(batch, *rng);
    auto loss = yf::autograd::softmax_cross_entropy(
        model->forward(yf::autograd::Variable(b.images)), b.labels);
    loss.backward();
    return loss.value().item();
  };
  task.val_fn = [dataset, model] {
    const auto b = dataset->validation_batch(64);
    const auto logits = model->forward(yf::autograd::Variable(b.images));
    const auto& v = logits.value();
    std::int64_t correct = 0;
    const auto c = v.dim(1);
    for (std::int64_t i = 0; i < v.dim(0); ++i) {
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < c; ++j)
        if (v[i * c + j] > v[i * c + best]) best = j;
      if (best == b.labels[static_cast<std::size_t>(i)]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(v.dim(0));
  };
  return task;
}

/// Generic LSTM-LM task over a token-batch sampler.
inline ModelTask make_lm_task(
    std::function<std::vector<std::int64_t>(std::int64_t, std::int64_t, yf::tensor::Rng&)>
        sample_batch,
    const yf::nn::LanguageModelConfig& cfg, std::uint64_t seed, std::int64_t batch = 6,
    std::int64_t seq_plus1 = 13, std::function<double(const ModelTask&)> /*unused*/ = {}) {
  yf::tensor::Rng model_rng(seed);
  auto model = std::make_shared<yf::nn::LSTMLanguageModel>(cfg, model_rng);
  auto rng = std::make_shared<yf::tensor::Rng>(seed + 2000);
  auto sampler = std::make_shared<decltype(sample_batch)>(std::move(sample_batch));

  ModelTask task;
  task.params = model->parameters();
  task.grad_fn = [model, rng, sampler, batch, seq_plus1] {
    const auto tokens = (*sampler)(batch, seq_plus1, *rng);
    auto loss = model->loss(tokens, batch, seq_plus1);
    loss.backward();
    return loss.value().item();
  };
  // Validation perplexity (lower is better): exp of held-out loss.
  auto val_rng = std::make_shared<yf::tensor::Rng>(31337);
  task.val_fn = [model, sampler, batch, seq_plus1, val_rng] {
    yf::tensor::Rng rng_copy = *val_rng;  // same held-out batch every call
    const auto tokens = (*sampler)(batch, seq_plus1, rng_copy);
    return std::exp(model->loss(tokens, batch, seq_plus1).value().item());
  };
  return task;
}

/// Char-level LM on MarkovText ("TinyShakespeare" substitute).
inline ModelTask make_char_lm_task(std::uint64_t seed) {
  auto dataset = std::make_shared<yf::data::MarkovText>([] {
    yf::data::MarkovTextConfig cfg;
    cfg.vocab = 33;
    cfg.branching = 3;
    cfg.seed = 13;
    return cfg;
  }());
  yf::nn::LanguageModelConfig lc;
  lc.vocab = 33;
  lc.embed_dim = 12;
  lc.hidden = 16;
  lc.layers = 2;
  return make_lm_task(
      [dataset](std::int64_t b, std::int64_t s, yf::tensor::Rng& rng) {
        return dataset->sample_batch(b, s, rng);
      },
      lc, seed);
}

/// Word-level LM on ZipfText ("PTB" substitute).
inline ModelTask make_word_lm_task(std::uint64_t seed, bool tied = false) {
  auto dataset = std::make_shared<yf::data::ZipfText>([] {
    yf::data::ZipfTextConfig cfg;
    cfg.vocab = 80;
    cfg.seed = 17;
    return cfg;
  }());
  yf::nn::LanguageModelConfig lc;
  lc.vocab = 80;
  lc.embed_dim = 16;
  lc.hidden = 16;
  lc.layers = 2;
  lc.tie_weights = tied;
  return make_lm_task(
      [dataset](std::int64_t b, std::int64_t s, yf::tensor::Rng& rng) {
        return dataset->sample_batch(b, s, rng);
      },
      lc, seed);
}

/// BracketLang parsing-as-LM ("WSJ constituency parsing" substitute);
/// val_fn returns bracket F1 (higher is better).
inline ModelTask make_parse_task(std::uint64_t seed) {
  auto dataset = std::make_shared<yf::data::BracketLang>([] {
    yf::data::BracketLangConfig cfg;
    cfg.labels = 6;
    cfg.terminals = 10;
    cfg.seed = 19;
    return cfg;
  }());
  yf::nn::LanguageModelConfig lc;
  lc.vocab = dataset->vocab();
  lc.embed_dim = 12;
  lc.hidden = 16;
  lc.layers = 2;
  yf::tensor::Rng model_rng(seed);
  auto model = std::make_shared<yf::nn::LSTMLanguageModel>(lc, model_rng);
  auto rng = std::make_shared<yf::tensor::Rng>(seed + 3000);

  const std::int64_t batch = 6, seq_plus1 = 17;
  ModelTask task;
  task.params = model->parameters();
  task.grad_fn = [model, dataset, rng, batch, seq_plus1] {
    const auto tokens = dataset->sample_batch(batch, seq_plus1, *rng);
    auto loss = model->loss(tokens, batch, seq_plus1);
    loss.backward();
    return loss.value().item();
  };
  task.val_fn = [model, dataset, batch, seq_plus1] {
    yf::tensor::Rng val_rng(424242);
    const auto tokens = dataset->sample_batch(batch, seq_plus1, val_rng);
    const auto seq = seq_plus1 - 1;
    std::vector<std::int64_t> inputs(static_cast<std::size_t>(batch * seq)),
        targets(static_cast<std::size_t>(batch * seq));
    for (std::int64_t b = 0; b < batch; ++b)
      for (std::int64_t t = 0; t < seq; ++t) {
        inputs[static_cast<std::size_t>(b * seq + t)] =
            tokens[static_cast<std::size_t>(b * seq_plus1 + t)];
        targets[static_cast<std::size_t>(b * seq + t)] =
            tokens[static_cast<std::size_t>(b * seq_plus1 + t + 1)];
      }
    const auto logits = model->logits(inputs, batch, seq);
    const auto& v = logits.value();
    std::vector<std::int64_t> preds(static_cast<std::size_t>(batch * seq));
    const auto c = v.dim(1);
    for (std::int64_t r = 0; r < batch * seq; ++r) {
      std::int64_t best = 0;
      for (std::int64_t j = 1; j < c; ++j)
        if (v[r * c + j] > v[r * c + best]) best = j;
      preds[static_cast<std::size_t>(r)] = best;
    }
    return yf::data::BracketLang::bracket_f1(preds, targets);
  };
  return task;
}

/// Seq2seq on CopyTranslate (Table 1 / Fig. 6 substitute for ConvS2S on
/// IWSLT'14). `init_scale` scales the recurrent init; `spike_prob` and
/// `spike_scale` inject occasional steep-slope batches -- the paper's own
/// characterization of RNN landscapes ("occasional but very steep slopes",
/// Sec. 3.3) -- which at this model scale do not arise spontaneously
/// (gates saturate; see DESIGN.md §2). A spiked batch multiplies the loss
/// (hence the gradient) by `spike_scale`, reproducing the gradient
/// explosion the clipping machinery must survive.
inline ModelTask make_seq2seq_task(std::uint64_t seed, double init_scale,
                                   double spike_prob = 0.0, double spike_scale = 1.0) {
  auto dataset = std::make_shared<yf::data::CopyTranslate>([] {
    yf::data::CopyTranslateConfig cfg;
    cfg.vocab = 12;
    cfg.src_len = 6;
    cfg.seed = 23;
    return cfg;
  }());
  yf::nn::Seq2SeqConfig sc;
  sc.src_vocab = dataset->src_vocab();
  sc.tgt_vocab = dataset->tgt_vocab();
  sc.embed_dim = 10;
  sc.hidden = 16;
  sc.layers = 1;
  sc.init_scale = init_scale;
  yf::tensor::Rng model_rng(seed);
  auto model = std::make_shared<yf::nn::Seq2Seq>(sc, model_rng);
  auto rng = std::make_shared<yf::tensor::Rng>(seed + 4000);

  ModelTask task;
  task.params = model->parameters();
  task.grad_fn = [model, dataset, rng, spike_prob, spike_scale] {
    const auto b = dataset->sample(6, *rng);
    auto loss = model->loss(b.src, b.src_len, b.tgt, b.tgt_len_plus1, b.batch);
    if (spike_prob > 0.0 && rng->bernoulli(spike_prob)) {
      loss = yf::autograd::mul_scalar(loss, spike_scale);
    }
    loss.backward();
    return loss.value().item();
  };
  task.val_fn = [model, dataset] {
    yf::tensor::Rng val_rng(515151);
    const auto b = dataset->sample(16, val_rng);
    return model->token_accuracy(b.src, b.src_len, b.tgt, b.tgt_len_plus1, b.batch);
  };
  return task;
}

// ---------------------------------------------------------------------------
// Optimizer factory and run helpers.
// ---------------------------------------------------------------------------

inline std::shared_ptr<yf::optim::Optimizer> make_optimizer(
    const std::string& name, std::vector<yf::autograd::Variable> params, double lr,
    double momentum = 0.9) {
  if (name == "sgd") return std::make_shared<yf::optim::SGD>(std::move(params), lr);
  if (name == "momentum_sgd") {
    return std::make_shared<yf::optim::MomentumSGD>(std::move(params), lr, momentum);
  }
  if (name == "adam") return std::make_shared<yf::optim::Adam>(std::move(params), lr);
  if (name == "adagrad") return std::make_shared<yf::optim::AdaGrad>(std::move(params), lr);
  if (name == "yellowfin") {
    yf::tuner::YellowFinOptions opts;
    opts.lr_factor = lr;  // lr parameter doubles as the Fig. 11 factor
    if (!full_mode()) {
      // Scale the measurement timescale with the shortened horizon: the
      // paper pairs beta = 0.999 (EWMA timescale 1000) with 20k-120k
      // iteration runs (<= 5% of horizon). Quick-mode runs are ~1e3
      // iterations, so beta = 0.97 / 50-step warm-up keeps the same ratio.
      opts.beta = 0.995;
      opts.slow_start_iters = 50;
    }
    return std::make_shared<yf::tuner::YellowFin>(std::move(params), opts);
  }
  throw std::invalid_argument("make_optimizer: unknown optimizer " + name);
}

/// Train through the sharded parameter server: the master optimizer owns
/// one task's parameters; each worker gets its own replica task (same
/// fixed dataset, per-worker minibatch stream) and pushes gradients.
/// train_server seeds worker 0 with run_one's seed, so one worker
/// reproduces the train() losses exactly. The loss curve is in server
/// apply order, padded to `iterations` entries.
inline std::vector<double> run_one_server(
    const std::function<ModelTask(std::uint64_t)>& make_task, const std::string& opt_name,
    double lr, std::int64_t iterations, std::uint64_t seed) {
  auto master = make_task(seed);
  auto opt = make_optimizer(opt_name, master.params, lr);
  yf::async::ParamServerOptions sopts;
  sopts.shards = server_shards();
  sopts.measure = false;  // loss-curve runs don't pay for measurement
  yf::async::ShardedParamServer server(opt, sopts);

  const std::int64_t workers = server_workers();
  const auto make_replica = [&make_task](std::uint64_t replica_seed) {
    auto task = make_task(replica_seed);
    return yf::async::ServerWorker{std::move(task.params), std::move(task.grad_fn)};
  };
  yf::async::ServerRunOptions ropts;
  ropts.steps_per_worker = std::max<std::int64_t>(1, iterations / workers);
  const auto result = yf::train::train_server(server, make_replica, workers, seed, ropts, 1e4);
  auto losses = result.losses;
  while (static_cast<std::int64_t>(losses.size()) < iterations) {
    losses.push_back(losses.empty() ? 1e4 : losses.back());
  }
  losses.resize(static_cast<std::size_t>(iterations));
  return losses;
}

/// Train a freshly-built task with a named optimizer; returns the raw loss
/// curve (padded with divergence_bound if the run diverges). Dispatches on
/// YF_ENGINE: "sync" (default) or "server" (sharded parameter server).
inline std::vector<double> run_one(const std::function<ModelTask(std::uint64_t)>& make_task,
                                   const std::string& opt_name, double lr,
                                   std::int64_t iterations, std::uint64_t seed) {
  if (engine() == "server") return run_one_server(make_task, opt_name, lr, iterations, seed);
  auto task = make_task(seed);
  auto opt = make_optimizer(opt_name, task.params, lr);
  yf::train::TrainOptions topts;
  topts.iterations = iterations;
  topts.divergence_bound = 1e4;
  return yf::train::train(*opt, task.grad_fn, topts).losses;
}

/// Grid-search an optimizer per the Section 5.1 protocol and return the
/// best seed-averaged smoothed curve.
inline yf::train::GridSearchResult tune(const std::function<ModelTask(std::uint64_t)>& make_task,
                                        const std::string& opt_name,
                                        const std::vector<double>& grid,
                                        std::int64_t iterations,
                                        std::int64_t smooth_window = 50) {
  yf::train::GridSearchOptions gopts;
  gopts.grid = grid;
  gopts.seeds = seeds();
  gopts.smooth_window = smooth_window;
  return yf::train::grid_search(
      [&](double lr, std::uint64_t seed) {
        return run_one(make_task, opt_name, lr, iterations, seed);
      },
      gopts);
}

}  // namespace yfb
