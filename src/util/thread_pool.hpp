// Fixed-size thread pool with a deterministic parallel_for_indexed helper.
//
// Benchmarks run parameter sweeps and Monte-Carlo trials in parallel. Each
// task receives its index so callers can derive an independent RNG
// substream per index — results are bit-identical regardless of the number
// of worker threads or scheduling order.
//
// Lock discipline (machine-checked by the clang-tsa preset):
//   - mutex_ guards the task queue and the stop flag; workers and
//     submitters take it for O(1) critical sections only.
//   - join_mutex_ guards the worker vector and serializes shutdown():
//     concurrent callers all block until the workers are actually joined,
//     so "shutdown returned" always means "no worker is running".
//   - join_mutex_ is acquired before mutex_ (only shutdown holds both);
//     no code path holding mutex_ ever takes join_mutex_.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace bac {

class ThreadPool {
 public:
  /// `threads == 0` means hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count: the construction size until shutdown() completes, 0
  /// afterwards. Lock-free (an atomic published by shutdown), so it is
  /// safe to call from pool tasks while another thread shuts down.
  [[nodiscard]] std::size_t size() const noexcept {
    return n_workers_.load(std::memory_order_acquire);
  }

  /// Stop accepting work, drain already-queued tasks, and join the
  /// workers. Idempotent; the destructor calls it. Concurrent callers
  /// serialize on the join: every call returns only once the workers are
  /// joined (a second caller used to return while the first was still
  /// joining, letting it destroy the pool under a live join). After
  /// shutdown, submit() and parallel_for_indexed() throw instead of
  /// enqueueing tasks no worker will ever run (whose futures would block
  /// forever).
  void shutdown();

  /// True once shutdown() has begun (no further submissions accepted).
  [[nodiscard]] bool stopped() const;

  /// Enqueue a task; the future resolves with its result (or exception).
  /// Throws std::runtime_error after shutdown().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      MutexLock lock(mutex_);
      if (stop_)
        throw std::runtime_error(
            "ThreadPool: submit after shutdown (the task would never run "
            "and its future would block forever)");
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(i) for i in [0, count) across the pool; rethrows the first
  /// task exception after all tasks finish. The calling thread is one of
  /// at most size() threads running fn at once (it submits size() - 1
  /// tasks and joins the work), and it drains queued tasks while it
  /// waits, so nesting (a pool task
  /// that itself calls parallel_for_indexed — e.g. a sweep cell running a
  /// parallel Monte-Carlo) cannot deadlock the pool. Throws
  /// std::runtime_error after shutdown() (it will not silently fall back
  /// to serial execution on a dead pool).
  void parallel_for_indexed(std::size_t count,
                            const std::function<void(std::size_t)>& fn);

  /// Run one queued task on the calling thread if any is pending.
  bool try_run_one();

 private:
  void worker_loop();

  mutable Mutex join_mutex_ ACQUIRED_BEFORE(mutex_);
  std::vector<std::thread> workers_ GUARDED_BY(join_mutex_);
  std::atomic<std::size_t> n_workers_{0};  ///< mirrors workers_.size()
  mutable Mutex mutex_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  std::condition_variable cv_;
};

/// Process-wide pool for benchmark sweeps.
ThreadPool& global_pool();

/// Set the size the global pool is built with (0 = hardware concurrency).
/// Must be called before the first global_pool() use; later calls have no
/// effect because the pool is already running.
void configure_global_pool(std::size_t threads);

}  // namespace bac
