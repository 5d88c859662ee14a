// Staleness queue: the round-robin delay model.
//
// `StalenessQueue` models M round-robin workers exactly: with tau = M - 1,
// the gradient applied at step t was computed against the model at step
// t - tau (Section 5.2 protocol). Pushing the gradient computed at the
// current iterate and popping once the queue holds tau+1 entries
// reproduces that, single-threaded and deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

namespace yf::async {

template <typename T>
class StalenessQueue {
 public:
  explicit StalenessQueue(std::int64_t staleness) : staleness_(staleness) {
    if (staleness < 0) throw std::invalid_argument("StalenessQueue: staleness must be >= 0");
  }

  /// Push the value produced at the current step; returns the value that is
  /// now `staleness` steps old, once the pipeline is full.
  std::optional<T> push(T value) {
    queue_.push_back(std::move(value));
    if (static_cast<std::int64_t>(queue_.size()) > staleness_) {
      T out = std::move(queue_.front());
      queue_.pop_front();
      return out;
    }
    return std::nullopt;
  }

  std::size_t pending() const { return queue_.size(); }

 private:
  std::int64_t staleness_;
  std::deque<T> queue_;
};

}  // namespace yf::async
