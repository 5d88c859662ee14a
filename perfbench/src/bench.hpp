// Shared types of the repo benchmark runner (perfbench/README.md).
//
// Every workload runs the library through its public entry points and
// fills one RunResult with raw measurements: per-build set-up times, one
// latency sample per operation, failure counts, losses, output checks,
// per-layer counters and, in a traced run, the recorded spans. The script
// perfbench/run.py turns those into the reported metrics, so the
// statistics live in one place and are unit-tested there.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Layer names of the spans recorded in traced runs. The names themselves
/// (common.cpp) are written out with the spans.
enum SpanName : std::int32_t {
  kTrainStep,       ///< root: one training step (train_lm, train_cnn)
  kDistRound,       ///< root: one worker round, pull to push reply (async_socket)
  kServeRequest,    ///< root: one client request (serve_lm)
  kServePublish,    ///< root: one LMServer::publish (serve_lm publisher)
  kDataSample,      ///< dataset sample / sample_batch
  kNnForward,       ///< model loss / forward (nn + autograd recording)
  kAutogradBackward,///< Variable::backward
  kTunerBeginApply, ///< YellowFin::begin_apply
  kOptimSweep,      ///< step_span over the arena + end_apply
  kDistPull,        ///< ParamChannel::pull
  kDistPush,        ///< ParamChannel::push
  kSpanNameCount,
};

const char* span_name(std::int32_t name);

struct Span {
  std::int32_t name = 0;
  std::int32_t parent = -1;  ///< index into the same log; -1 for a root
  std::uint64_t op = 0;      ///< operation id, unique within the log
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends. Capacity is
/// reserved up front so recording never allocates (allocations are a
/// per-layer metric); a full log stops recording and counts the loss.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  /// Open a span as a child of the innermost open span (a root when none
  /// is open). Returns its index, or -1 when the log is full.
  int open(std::int32_t name);
  void close(int index);
  /// Operation id stamped on spans opened from now on.
  void set_op(std::uint64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t op_ = 0;
  std::int64_t dropped_ = 0;
};

/// RAII span; a null log (untraced run) records nothing.
class Scope {
 public:
  Scope(SpanLog* log, std::int32_t name) : log_(log), index_(log ? log->open(name) : -1) {}
  ~Scope() {
    if (log_) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Heap allocations counted by the benchmark's replacement operator new
/// (alloc_hook.cpp) while counting is switched on.
void set_alloc_counting(bool on);
std::uint64_t counted_allocs();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Moves the calling thread through the CPUs it may run on, one per
/// next() call, and restores its original CPU set on destruction. On a
/// shared host a vCPU can run a thread 1.5x slower while other tenants
/// load its core, and a single-threaded loop the scheduler leaves there is
/// slow for the whole run; rotating gives every run the same share of
/// every vCPU. Threads started while pinned inherit the pin, so the
/// library's compute pool is created before the first next().
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Latencies in µs of one load thread's operations, in the order they
/// completed. A float sample takes 4 bytes: the buffers grow with a run's
/// throughput, and peak_rss_mb counts them along with the library.
using Latencies = std::vector<float>;
using LatencyRuns = std::vector<Latencies>;  ///< one per load thread

struct RunResult {
  std::vector<double> setup_s;  ///< one per fresh build
  LatencyRuns latency_us;       ///< one sample per measured operation
  double measured_s = 0.0;      ///< wall time of the measured window
  std::int64_t completed = 0;   ///< operations completed in that window
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double peak_rss_mb = 0.0;  ///< taken when the measured window ends
  double first_loss = 0.0;   ///< loss of the first step or update
  /// Mean loss over a fixed horizon of steps or updates from the start
  /// (training workloads), or of the served next-token predictions.
  double mean_loss = 0.0;
  std::vector<std::pair<std::string, bool>> checks;
  /// Per-layer counters computed in the workload (traced runs).
  std::map<std::string, double> layer;
  /// Traced runs: per-operation latency of the untraced and traced halves.
  LatencyRuns untraced_latency_us;
  std::vector<SpanLog> span_logs;

  void check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
};

RunResult run_train_lm(const Options& opts);
RunResult run_train_cnn(const Options& opts);
RunResult run_async_socket(const Options& opts);
RunResult run_serve_lm(const Options& opts);

/// Median of `v` (copied); 0 for an empty vector.
double median(std::vector<double> v);

}  // namespace perfbench
