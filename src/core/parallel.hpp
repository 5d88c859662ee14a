// Shared thread pool and grain-size-aware parallel_for (DESIGN.md §4).
//
// One process-wide pool runs the data-parallel chunks: the span kernels
// (core/kernels.hpp) partition large elementwise sweeps over it and
// tensor::matmul parallelises over output rows. Training workers do not
// run on it: dist::run_channel_workers (and async::run_workers through
// it) gives each worker its own thread, marked inline.
//
// Determinism contract: parallel_for only ever partitions *independent*
// index ranges; callers that need a deterministic reduction order keep the
// reduction sequential (see kernels.hpp). Nested calls from inside a pool
// worker, or from a thread marked inline, run inline, so the pool never
// deadlocks on itself.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>

namespace yf::core {

/// Default elementwise grain: below this many scalars a sweep is not worth
/// dispatching to the pool.
inline constexpr std::int64_t kDefaultGrain = 1 << 14;

/// Grain for SIMD-backed elementwise sweeps: a vector loop retires ~4
/// doubles per cycle, so a chunk must be about 4x larger than the scalar
/// grain before pool dispatch amortizes. Partitioning never changes
/// elementwise results, so the two grains may differ freely.
inline constexpr std::int64_t kSimdGrain = 1 << 16;

class ThreadPool {
 public:
  /// Process-wide pool. Initial worker count is YF_THREADS when set, else
  /// hardware_concurrency. With fewer than two workers, parallel_for runs
  /// inline (a lone worker cannot beat the calling thread).
  static ThreadPool& instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const;

  /// Number of chunks parallel_for may dispatch (excluding the calling
  /// thread). Defaults to the initial worker count (YF_THREADS or
  /// hardware_concurrency).
  std::size_t fanout() const;

  /// Raise the fan-out cap (grows the pool to match). For tests and
  /// experiments that want data-parallel chunking beyond the detected
  /// core count.
  void set_fanout(std::size_t n);

  /// Enqueue a task; the future rethrows any exception it raised.
  ///
  /// COLD PATH: constructing the std::function and the promise/future
  /// pair heap-allocates per task. The library's one caller is
  /// parallel_for's chunk dispatch, which only runs above the grain.
  /// Nothing a zero-allocation step runs may submit here. Tasks must not
  /// wait on each other: nothing grows the pool to fit a blocking task set.
  std::future<void> submit(std::function<void()> fn);

  /// True when called from inside a pool worker or from a thread marked
  /// by detail::mark_thread_inline (parallel_for runs inline there).
  static bool on_worker_thread();

 private:
  ThreadPool();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

namespace detail {

/// Non-owning, non-allocating reference to a parallel body. The inline
/// fast path of parallel_for must not construct a std::function -- a
/// capturing lambda routinely exceeds the small-buffer size and would
/// heap-allocate on every elementwise kernel call, breaking the tape's
/// zero-allocation contract (DESIGN.md §8).
struct BodyRef {
  void* ctx;
  void (*invoke)(void*, std::int64_t, std::int64_t);
  void operator()(std::int64_t lo, std::int64_t hi) const { invoke(ctx, lo, hi); }
};

/// Pool-dispatching slow path; `body` must stay alive for the call.
void parallel_for_dispatch(std::int64_t n, std::int64_t grain, const BodyRef& body);

/// Make parallel_for run inline on the calling thread for the rest of its
/// life, as on a pool worker. Training worker bodies call this first
/// (dist::run_channel_workers): each worker already owns a thread, so
/// fanning its kernels out onto the pool would only oversubscribe it.
void mark_thread_inline();

}  // namespace detail

/// Run `body(lo, hi)` over a partition of [0, n). Ranges are disjoint,
/// cover [0, n) exactly, and are at least `grain` long (except possibly
/// the last), so per-element work is identical to a sequential sweep.
/// Runs inline when n <= grain, the pool is unavailable, or the caller is
/// itself a pool worker or a thread marked inline. The inline path
/// performs no heap allocation.
template <typename Body>
void parallel_for(std::int64_t n, std::int64_t grain, const Body& body) {
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  if (n <= grain || ThreadPool::on_worker_thread()) {
    body(0, n);
    return;
  }
  const detail::BodyRef ref{
      const_cast<void*>(static_cast<const void*>(&body)),
      [](void* ctx, std::int64_t lo, std::int64_t hi) {
        (*static_cast<const Body*>(ctx))(lo, hi);
      }};
  detail::parallel_for_dispatch(n, grain, ref);
}

}  // namespace yf::core
