// train_lm and train_cnn: YellowFin on one thread through train::train(),
// with no tape, exactly as yfb::run_one drives every table/figure
// reproduction.
//
// Untraced run: several fresh builds (task + optimizer + a fixed count of
// warm-up steps) time set-up; the last build then trains on for the
// measured window. A step's latency is the interval between consecutive
// grad_fn entries, i.e. zero_grad + forward + backward + optimizer step.
//
// Traced run: the first half repeats the untraced loop; the second half
// rebuilds the same seed and steps a loop that follows train() statement
// for statement but calls begin_apply / step_span / end_apply in place of
// Optimizer::step() (documented as exactly that sequence), with spans
// around each layer call. Its losses must equal the untraced trajectory
// bit for bit.
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "bench.hpp"
#include "tasks.hpp"
#include "train/trainer.hpp"

namespace perfbench {
namespace {

constexpr double kDivergenceBound = 1e4;  // yfb::run_one's guard
constexpr double kMaxOpsPerSecond = 20000;  // sizes the sample and span buffers
/// At least one of stats.py's 1000-sample blocks, whose p99 has 10 samples
/// beyond it; a slow step never starves it.
constexpr std::size_t kMinSamples = 1200;

struct TrainSpec {
  std::function<std::unique_ptr<TrainTask>(std::uint64_t)> make_task;
  int builds;               ///< fresh builds timed for setup_s
  std::int64_t warm_steps;  ///< first steps run inside each build
  std::int64_t chunk;       ///< steps per train() call in the measured loop
  std::int64_t horizon;     ///< mean_loss averages steps 1..horizon
};

struct Trainer {
  std::unique_ptr<TrainTask> task;
  std::unique_ptr<yf::tuner::YellowFin> opt;
  std::vector<double> losses;  ///< whole trajectory from step 1
};

std::unique_ptr<Trainer> build(const TrainSpec& spec, std::uint64_t seed) {
  auto t = std::make_unique<Trainer>();
  t->task = spec.make_task(seed);
  t->opt = std::make_unique<yf::tuner::YellowFin>(t->task->params(), quick_yellowfin());
  return t;
}

/// Untraced training for at least `seconds`, spec.horizon trajectory steps
/// and kMinSamples samples. Appends one latency sample per step (except the
/// last step of each train() call, whose successor entry is not observed).
void train_untraced(const TrainSpec& spec, Trainer& t, double seconds, RunResult& r,
                    Latencies& latency_us, CpuRotation& cpus) {
  std::vector<std::int64_t> entries;
  entries.reserve(static_cast<std::size_t>(spec.chunk));
  TrainTask& task = *t.task;
  const yf::train::GradFn timed = [&task, &entries] {
    entries.push_back(now_ns());
    return grad_step(task, nullptr);
  };
  yf::train::TrainOptions topts;
  topts.iterations = spec.chunk;
  topts.divergence_bound = kDivergenceBound;

  const std::size_t samples0 = latency_us.size();
  const std::int64_t start = now_ns();
  std::int64_t end = start;
  while (end - start < static_cast<std::int64_t>(seconds * 1e9) ||
         static_cast<std::int64_t>(t.losses.size()) < spec.horizon ||
         latency_us.size() - samples0 < kMinSamples) {
    entries.clear();
    cpus.next();
    const auto res = yf::train::train(*t.opt, timed, topts);
    end = now_ns();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      latency_us.push_back(static_cast<float>(entries[i] - entries[i - 1]) * 1e-3f);
    }
    const auto steps = static_cast<std::int64_t>(entries.size());
    r.attempted += steps;
    r.completed += steps;
    t.losses.insert(t.losses.end(), res.losses.begin(), res.losses.begin() + steps);
    if (res.diverged) {
      ++r.failed;  // the step whose loss was non-finite or past the bound
      break;
    }
  }
  r.measured_s += static_cast<double>(end - start) * 1e-9;
}

/// train() unrolled with Optimizer::step() split into its three calls and
/// a span around every layer call; a null log (the warm-up steps of a
/// build) records nothing. Returns false on divergence.
bool traced_step(Trainer& t, SpanLog* log, std::uint64_t op, Latencies& latency_us) {
  if (log) log->set_op(op);
  const std::int64_t t0 = now_ns();
  const int root = log ? log->open(kTrainStep) : -1;
  t.opt->zero_grad();
  const double loss = grad_step(*t.task, log);
  if (!std::isfinite(loss) || loss > kDivergenceBound) {
    if (log) log->close(root);
    return false;
  }
  yf::optim::ApplyPlan plan;
  {
    Scope s(log, kTunerBeginApply);
    plan = t.opt->begin_apply(t.opt->arena().grads());
  }
  {
    Scope s(log, kOptimSweep);
    t.opt->step_span(plan, 0, t.opt->arena().size());
    t.opt->end_apply(plan);
  }
  t.losses.push_back(loss);
  if (log) {
    log->close(root);
    latency_us.push_back(static_cast<float>(now_ns() - t0) * 1e-3f);
  }
  return true;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

RunResult run_train(const Options& opts, const TrainSpec& spec) {
  RunResult r;
  CpuRotation cpus;
  yf::train::TrainOptions warm;
  warm.iterations = spec.warm_steps;
  warm.divergence_bound = kDivergenceBound;
  // One fresh build from nothing: task, optimizer and the warm-up steps.
  const auto timed_build = [&] {
    cpus.next();
    const std::int64_t t0 = now_ns();
    auto t = build(spec, opts.seed);
    TrainTask& task = *t->task;
    const auto res =
        yf::train::train(*t->opt, [&task] { return grad_step(task, nullptr); }, warm);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    t->losses = res.losses;
    if (res.diverged) ++r.failed;
    return t;
  };

  // Builds are timed on both sides of the measured window so that set-up
  // samples more than one phase of the host's load; the last one before
  // the window is the one measured.
  std::unique_ptr<Trainer> t;
  for (int b = 0; b < (opts.trace ? 1 : spec.builds / 2); ++b) {
    t.reset();
    t = timed_build();
  }
  const double window = opts.trace ? opts.seconds / 2 : opts.seconds;
  Latencies& untraced = (opts.trace ? r.untraced_latency_us : r.latency_us).emplace_back();
  untraced.reserve(static_cast<std::size_t>(window * kMaxOpsPerSecond));
  train_untraced(spec, *t, window, r, untraced, cpus);
  r.peak_rss_mb = peak_rss_mb();
  for (int b = 0; b < (opts.trace ? 0 : spec.builds - spec.builds / 2); ++b) timed_build();

  const auto& traj = t->losses;
  r.first_loss = traj.empty() ? NAN : traj.front();
  r.mean_loss = NAN;  // a run that diverged before the horizon has none
  if (static_cast<std::int64_t>(traj.size()) >= spec.horizon) {
    double sum = 0.0;
    for (std::int64_t i = 0; i < spec.horizon; ++i) sum += traj[static_cast<std::size_t>(i)];
    r.mean_loss = sum / static_cast<double>(spec.horizon);
  }
  bool finite = !traj.empty();
  for (double l : traj) finite = finite && std::isfinite(l);
  r.check("loss_finite", finite && r.failed == 0);
  r.check("mean_loss_below_first", r.mean_loss < r.first_loss);

  if (!opts.trace) return r;

  // Traced half: the same seed rebuilt, its warm-up steps untraced.
  auto traced = build(spec, opts.seed);
  r.span_logs.emplace_back(static_cast<std::size_t>(window * kMaxOpsPerSecond) * 8);
  SpanLog& log = r.span_logs.back();
  Latencies& latency_us = r.latency_us.emplace_back();
  latency_us.reserve(static_cast<std::size_t>(window * kMaxOpsPerSecond));
  bool ok = true;
  for (std::int64_t i = 0; ok && i < spec.warm_steps; ++i) {
    ok = traced_step(*traced, nullptr, 0, latency_us);
  }
  const std::int64_t start = now_ns();
  std::int64_t steps = 0;
  while (ok && now_ns() - start < static_cast<std::int64_t>(window * 1e9)) {
    if (steps % spec.chunk == 0) cpus.next();
    ok = traced_step(*traced, &log, static_cast<std::uint64_t>(steps), latency_us);
    ++steps;
  }
  // Allocations are counted over one more chunk, apart from the timed
  // spans: the counting allocator's atomic would show in them.
  const std::uint64_t allocs0 = counted_allocs();
  set_alloc_counting(true);
  for (std::int64_t i = 0; ok && i < spec.chunk; ++i, ++steps) {
    ok = traced_step(*traced, nullptr, 0, latency_us);
  }
  set_alloc_counting(false);
  r.layer["core.allocs_per_step"] =
      static_cast<double>(counted_allocs() - allocs0) / static_cast<double>(spec.chunk);
  r.attempted += steps;
  r.completed += ok ? steps : steps - 1;
  if (!ok) ++r.failed;

  const auto& a = t->losses;
  const auto& b = traced->losses;
  const std::size_t n = std::min(a.size(), b.size());
  bool identical = n >= static_cast<std::size_t>(spec.warm_steps);
  for (std::size_t i = 0; identical && i < n; ++i) identical = same_bits(a[i], b[i]);
  r.check("traced_trajectory_bit_identical", identical);
  return r;
}

}  // namespace

RunResult run_train_lm(const Options& opts) {
  TrainSpec spec;
  spec.make_task = [](std::uint64_t seed) { return std::make_unique<CharLmTask>(seed); };
  spec.builds = 16;
  spec.warm_steps = 40;
  spec.chunk = 250;
  spec.horizon = 2000;
  return run_train(opts, spec);
}

RunResult run_train_cnn(const Options& opts) {
  TrainSpec spec;
  spec.make_task = [](std::uint64_t seed) { return std::make_unique<CifarTask>(seed); };
  spec.builds = 16;
  spec.warm_steps = 8;
  spec.chunk = 50;
  spec.horizon = 400;
  return run_train(opts, spec);
}

}  // namespace perfbench
