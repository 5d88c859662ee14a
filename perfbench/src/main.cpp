// perfbench_runner: runs one benchmark workload and writes its raw
// measurements as JSON for perfbench/run.py, which computes and prints the
// metrics. Run it through run.py, which also builds it:
//
//   perfbench_runner --workload train_lm --seed 1 --seconds 10 --trace 0 --out result.json
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "core/kernels/backend.hpp"

namespace {

using perfbench::RunResult;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload train_lm|train_cnn|async_socket|serve_lm "
               "--seed N --seconds S --trace 0|1 --out PATH\n");
  std::exit(2);
}

/// JSON has no inf/nan literal: write null, which run.py treats as failed.
void number(std::ostream& out, double v) {
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << buf;
  } else {
    out << "null";
  }
}

template <typename T>
void numbers(std::ostream& out, const std::vector<T>& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out << ',';
    number(out, v[i]);
  }
  out << ']';
}

void runs(std::ostream& out, const perfbench::LatencyRuns& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out << ",\n";
    numbers(out, v[i]);
  }
  out << ']';
}

void write_result(std::ostream& out, const perfbench::Options& opts, const RunResult& r) {
  out << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
      << ", \"trace\": " << (opts.trace ? 1 : 0) << ", \"kernel_backend\": \""
      << yf::core::active_kernel_backend_name() << "\",\n\"setup_s\": ";
  numbers(out, r.setup_s);
  out << ",\n\"latency_us\": ";
  runs(out, r.latency_us);
  out << ",\n\"untraced_latency_us\": ";
  runs(out, r.untraced_latency_us);
  out << ",\n\"measured_s\": ";
  number(out, r.measured_s);
  out << ", \"completed\": " << r.completed << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"first_loss\": ";
  number(out, r.first_loss);
  out << ", \"mean_loss\": ";
  number(out, r.mean_loss);
  out << ", \"peak_rss_mb\": ";
  number(out, r.peak_rss_mb);
  out << ",\n\"checks\": {";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    out << (i ? ", " : "") << '"' << r.checks[i].first
        << "\": " << (r.checks[i].second ? "true" : "false");
  }
  out << "},\n\"layer\": {";
  bool first = true;
  for (const auto& [name, value] : r.layer) {
    out << (first ? "" : ", ") << '"' << name << "\": ";
    number(out, value);
    first = false;
  }
  out << "},\n\"span_names\": [";
  for (std::int32_t n = 0; n < perfbench::kSpanNameCount; ++n) {
    out << (n ? ", " : "") << '"' << perfbench::span_name(n) << '"';
  }
  // One array per thread's log: [name, parent, op, start_ns, end_ns].
  std::int64_t dropped = 0;
  out << "],\n\"spans\": [";
  for (std::size_t l = 0; l < r.span_logs.size(); ++l) {
    const auto& log = r.span_logs[l];
    dropped += log.dropped();
    out << (l ? ",\n" : "") << '[';
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const auto& s = log.spans()[i];
      out << (i ? "," : "") << '[' << s.name << ',' << s.parent << ',' << s.op << ','
          << s.start_ns << ',' << s.end_ns << ']';
    }
    out << ']';
  }
  out << "],\n\"spans_dropped\": " << dropped << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage();
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0)) usage();
    } else if (arg == "--trace") {
      opts.trace = std::string(value) == "1";
      if (!opts.trace && std::string(value) != "0") usage();
    } else if (arg == "--out") {
      out_path = value;
    } else {
      usage();
    }
  }
  if (out_path.empty()) usage();

  // glibc adapts its mmap and trim thresholds as a process runs. Left
  // adaptive, train_cnn's per-step heap graph page-faults 400 to 1100
  // times a step depending on the history of frees, and on a VM each
  // fault's cost swings with the host's load: step times then varied
  // 4-8 ms between runs. Fixed thresholds keep freed memory in the heap,
  // so a step's time is the program's own work.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);

  RunResult r;
  try {
    if (opts.workload == "train_lm") {
      r = perfbench::run_train_lm(opts);
    } else if (opts.workload == "train_cnn") {
      r = perfbench::run_train_cnn(opts);
    } else if (opts.workload == "async_socket") {
      r = perfbench::run_async_socket(opts);
    } else if (opts.workload == "serve_lm") {
      r = perfbench::run_serve_lm(opts);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  std::ofstream out(out_path);
  write_result(out, opts, r);
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
