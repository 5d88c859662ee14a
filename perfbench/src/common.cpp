#include <sched.h>

#include <algorithm>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "core/parallel.hpp"

namespace perfbench {

const char* span_name(std::int32_t name) {
  static const char* const kNames[kSpanNameCount] = {
      "train.step",    "dist.round", "serve.request",         "serve.publish",
      "data.sample",   "nn.forward", "autograd.backward",     "tuner.begin_apply",
      "optim.sweep",   "dist.pull",  "dist.push",
  };
  return name >= 0 && name < kSpanNameCount ? kNames[name] : "?";
}

SpanLog::SpanLog(std::size_t capacity) {
  spans_.reserve(capacity);
  open_.reserve(16);
}

int SpanLog::open(std::int32_t name) {
  if (spans_.size() == spans_.capacity() || open_.size() == open_.capacity()) {
    ++dropped_;
    return -1;
  }
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, parent, op_, now_ns(), 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

CpuRotation::CpuRotation() {
  yf::core::ThreadPool::instance();  // spawn the pool's workers unpinned
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[turn_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);  // 0: the calling thread
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so a runner started
  // from a larger parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  const double hi = *mid;
  const double lo = *std::max_element(v.begin(), mid);
  return 0.5 * (lo + hi);
}

}  // namespace perfbench
