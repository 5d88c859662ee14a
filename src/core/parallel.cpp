#include "core/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/env.hpp"

namespace yf::core {

namespace {
/// Set on pool workers and on threads marked by detail::mark_thread_inline.
thread_local bool t_runs_inline = false;
}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_ready;
  std::deque<std::packaged_task<void()>> queue;
  std::vector<std::thread> workers;
  std::size_t fanout = 1;
  bool stopping = false;

  void worker_loop() {
    t_runs_inline = true;
    for (;;) {
      std::packaged_task<void()> task;
      {
        std::unique_lock lock(mu);
        work_ready.wait(lock, [&] { return stopping || !queue.empty(); });
        if (stopping && queue.empty()) return;
        task = std::move(queue.front());
        queue.pop_front();
      }
      task();
    }
  }

  void spawn_locked(std::size_t n) {
    while (workers.size() < n) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }
};

ThreadPool::ThreadPool() : impl_(std::make_unique<Impl>()) {
  std::size_t n = std::max(1u, std::thread::hardware_concurrency());
  // Checked parse (core/env.hpp): a malformed YF_THREADS warns and keeps
  // the hardware default instead of silently strtol-ing to 0.
  if (const auto v = env_int_value("YF_THREADS"); v.has_value() && *v > 0) {
    n = static_cast<std::size_t>(*v);
  }
  std::scoped_lock lock(impl_->mu);
  impl_->fanout = n;
  impl_->spawn_locked(n);
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (auto& w : impl_->workers) w.join();
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

std::size_t ThreadPool::size() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->workers.size();
}

std::size_t ThreadPool::fanout() const {
  std::scoped_lock lock(impl_->mu);
  return impl_->fanout;
}

void ThreadPool::set_fanout(std::size_t n) {
  std::scoped_lock lock(impl_->mu);
  impl_->fanout = n;
  impl_->spawn_locked(n);
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  auto fut = task.get_future();
  {
    std::scoped_lock lock(impl_->mu);
    impl_->queue.push_back(std::move(task));
  }
  impl_->work_ready.notify_one();
  return fut;
}

bool ThreadPool::on_worker_thread() { return t_runs_inline; }

namespace detail {

void mark_thread_inline() { t_runs_inline = true; }

void parallel_for_dispatch(std::int64_t n, std::int64_t grain, const BodyRef& body) {
  auto& pool = ThreadPool::instance();
  const auto fanout = pool.fanout();
  if (fanout < 2) {  // a single chunk cannot beat running inline
    body(0, n);
    return;
  }
  // Cap the chunk count at the fan-out limit (plus the calling thread):
  // finer chunking buys nothing and costs queue traffic.
  const auto max_chunks = static_cast<std::int64_t>(fanout) + 1;
  const std::int64_t chunks = std::min((n + grain - 1) / grain, max_chunks);
  const std::int64_t step = (n + chunks - 1) / chunks;

  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(chunks - 1));
  for (std::int64_t c = 1; c < chunks; ++c) {
    const std::int64_t lo = c * step;
    const std::int64_t hi = std::min(n, lo + step);
    if (lo >= hi) break;
    futures.push_back(pool.submit([&body, lo, hi] { body(lo, hi); }));
  }
  // Every chunk must finish before this frame unwinds (they reference
  // `body`), so collect the first error and rethrow only after the join.
  std::exception_ptr first_error;
  try {
    body(0, std::min(n, step));  // first chunk on the calling thread
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace yf::core
