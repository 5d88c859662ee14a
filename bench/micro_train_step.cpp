// Full training-step microbenchmarks: forward + backward + optimizer
// apply for the LSTM language model and an autograd quadratic
// (least-squares) model, on the two graph engines:
//
//   BM_*_Heap  -- the historical per-step shared_ptr graph: every op
//                 allocates a fresh node, value and grad tensor;
//   BM_*_Tape  -- the GraphTape path: after a one-step warm-up the graph
//                 replays out of the tape's workspace with zero heap
//                 allocations (tests/alloc_count_test.cpp proves the
//                 zero; this bench measures what it buys in wall time).
//
// Both engines produce bit-identical trajectories (tests/tape_test.cpp),
// so the delta is pure memory-management overhead. Every train-step
// bench also reports per-phase wall time (forward_ns / backward_ns /
// apply_ns averaged per step) as counters, which JsonReporter carries
// into BENCH_micro_train_step.json next to ns/op.
//
// The Tape variants also report the workspace high-water mark
// (workspace_peak_bytes) and the number of nodes a step records
// (tape_nodes), so the JSON shows the memory and the graph size a
// replayed step holds next to its time.
//
// Args: the LM runs {batch, seq_len_plus1}, the quadratic runs
// {rows, dim}. BM_TsSubTrainStep_Tape is table2's TS-sub char LM at
// batch 6 x 13 tokens, the step perfbench's gated train_lm workload
// times end to end, so its phase split and tape_nodes are that step's.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <type_traits>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/tape.hpp"
#include "common.hpp"
#include "data/markov_text.hpp"
#include "nn/language_model.hpp"
#include "optim/momentum_sgd.hpp"
#include "tensor/random.hpp"
#include "tuner/yellowfin.hpp"

namespace {

namespace ag = yf::autograd;
namespace nn = yf::nn;
namespace t = yf::tensor;

/// Accumulated per-phase wall time; reported as mean ns/step counters so
/// the JSON carries the forward/backward/apply split alongside ns/op.
struct PhaseClock {
  double forward_ns = 0.0, backward_ns = 0.0, apply_ns = 0.0;

  template <typename F>
  double timed(double PhaseClock::* phase, F&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      this->*phase += std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      return 0.0;
    } else {
      const double out = f();
      this->*phase += std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      return out;
    }
  }

  void report(benchmark::State& state) const {
    const double n = static_cast<double>(state.iterations() > 0 ? state.iterations() : 1);
    state.counters["forward_ns"] = benchmark::Counter(forward_ns / n);
    state.counters["backward_ns"] = benchmark::Counter(backward_ns / n);
    state.counters["apply_ns"] = benchmark::Counter(apply_ns / n);
  }
};

/// Peak workspace footprint and node count of a tape bench run.
void report_tape_counters(benchmark::State& state, const ag::GraphTape& tape) {
  state.counters["workspace_peak_bytes"] =
      benchmark::Counter(static_cast<double>(tape.workspace().high_water_bytes()));
  state.counters["tape_nodes"] = benchmark::Counter(static_cast<double>(tape.recorded_nodes()));
}

/// The model and language of an LM bench row (two LSTM layers each).
struct LmShape {
  std::int64_t vocab, embed_dim, hidden;
  std::uint64_t text_seed;
};
constexpr LmShape kLmShape{32, 16, 24, 0};
/// table2's TS-sub char LM (make_char_lm_task's model and language).
constexpr LmShape kTsSubShape{33, 12, 16, 13};

struct LmTask {
  std::vector<std::vector<std::int64_t>> batches;
  std::unique_ptr<nn::LSTMLanguageModel> model;
  std::unique_ptr<yf::tuner::YellowFin> opt;
  std::int64_t batch, seq_plus1;

  LmTask(std::int64_t batch_size, std::int64_t seq_len_plus1, const LmShape& shape = kLmShape)
      : batch(batch_size), seq_plus1(seq_len_plus1) {
    yf::data::MarkovTextConfig dcfg;
    dcfg.vocab = shape.vocab;
    dcfg.branching = 3;
    dcfg.seed = shape.text_seed;
    yf::data::MarkovText dataset(dcfg);
    t::Rng data_rng(17);
    for (int i = 0; i < 8; ++i) {
      batches.push_back(dataset.sample_batch(batch, seq_plus1, data_rng));
    }
    nn::LanguageModelConfig cfg;
    cfg.vocab = shape.vocab;
    cfg.embed_dim = shape.embed_dim;
    cfg.hidden = shape.hidden;
    cfg.layers = 2;
    t::Rng model_rng(1);
    model = std::make_unique<nn::LSTMLanguageModel>(cfg, model_rng);
    opt = std::make_unique<yf::tuner::YellowFin>(model->parameters());
  }

  double step(std::size_t i, PhaseClock& clock) {
    opt->zero_grad();
    ag::Variable loss;
    const double out = clock.timed(&PhaseClock::forward_ns, [&] {
      loss = model->loss(batches[i % batches.size()], batch, seq_plus1);
      return loss.value().item();
    });
    clock.timed(&PhaseClock::backward_ns, [&] { loss.backward(); });
    clock.timed(&PhaseClock::apply_ns, [&] { opt->step(); });
    return out;
  }
};

void BM_LmTrainStep_Heap(benchmark::State& state) {
  LmTask task(state.range(0), state.range(1));
  PhaseClock clock;
  std::size_t i = 0;
  double sink = 0.0;
  for (auto _ : state) sink += task.step(i++, clock);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  clock.report(state);
}

void run_lm_tape(benchmark::State& state, const LmShape& shape) {
  LmTask task(state.range(0), state.range(1), shape);
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  PhaseClock warmup_clock, clock;
  std::size_t i = 0;
  double sink = 0.0;
  // Warm-up outside the timed loop: record the graph, size the workspace
  // and cache the backward order.
  for (int w = 0; w < 4; ++w) {
    tape.begin_step();
    sink += task.step(i++, warmup_clock);
  }
  for (auto _ : state) {
    tape.begin_step();
    sink += task.step(i++, clock);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  clock.report(state);
  report_tape_counters(state, tape);
}

void BM_LmTrainStep_Tape(benchmark::State& state) { run_lm_tape(state, kLmShape); }
void BM_TsSubTrainStep_Tape(benchmark::State& state) { run_lm_tape(state, kTsSubShape); }

BENCHMARK(BM_LmTrainStep_Heap)->Args({4, 9})->Args({8, 17});
BENCHMARK(BM_LmTrainStep_Tape)->Args({4, 9})->Args({8, 17});
BENCHMARK(BM_TsSubTrainStep_Tape)->Args({6, 13});

struct QuadraticTask {
  ag::Variable w, x, y;
  std::unique_ptr<yf::optim::MomentumSGD> opt;

  QuadraticTask(std::int64_t rows, std::int64_t dim) {
    t::Rng rng(23);
    w = ag::Variable(rng.normal_tensor({dim, dim}, 0.0, 0.1), /*requires_grad=*/true);
    x = ag::Variable(rng.normal_tensor({rows, dim}));
    y = ag::Variable(rng.normal_tensor({rows, dim}));
    opt = std::make_unique<yf::optim::MomentumSGD>(std::vector<ag::Variable>{w}, 1e-3, 0.9);
  }

  double step(PhaseClock& clock) {
    opt->zero_grad();
    ag::Variable loss;
    const double out = clock.timed(&PhaseClock::forward_ns, [&] {
      loss = ag::mean(ag::square(ag::sub(ag::matmul(x, w), y)));
      return loss.value().item();
    });
    clock.timed(&PhaseClock::backward_ns, [&] { loss.backward(); });
    clock.timed(&PhaseClock::apply_ns, [&] { opt->step(); });
    return out;
  }
};

void BM_QuadraticTrainStep_Heap(benchmark::State& state) {
  QuadraticTask task(state.range(0), state.range(1));
  PhaseClock clock;
  double sink = 0.0;
  for (auto _ : state) sink += task.step(clock);
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  clock.report(state);
}

void BM_QuadraticTrainStep_Tape(benchmark::State& state) {
  QuadraticTask task(state.range(0), state.range(1));
  ag::GraphTape tape;
  ag::TapeScope scope(&tape);
  PhaseClock warmup_clock, clock;
  double sink = 0.0;
  for (int w = 0; w < 4; ++w) {
    tape.begin_step();
    sink += task.step(warmup_clock);
  }
  for (auto _ : state) {
    tape.begin_step();
    sink += task.step(clock);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
  clock.report(state);
  report_tape_counters(state, tape);
}

BENCHMARK(BM_QuadraticTrainStep_Heap)->Args({16, 16})->Args({32, 64});
BENCHMARK(BM_QuadraticTrainStep_Tape)->Args({16, 16})->Args({32, 64});

}  // namespace

int main(int argc, char** argv) {
  return yfb::benchmark_main_with_json(argc, argv, "micro_train_step");
}
