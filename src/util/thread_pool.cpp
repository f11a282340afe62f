#include "util/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

namespace bac {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  MutexLock lock(join_mutex_);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  n_workers_.store(threads, std::memory_order_release);
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  // Serializes concurrent shutdowns: the second caller blocks here until
  // the first has joined every worker, so the post-condition "no worker
  // is running" holds for all callers (it used to hold only for the one
  // that won the stop_ race).
  MutexLock join_lock(join_mutex_);
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  n_workers_.store(0, std::memory_order_release);
}

bool ThreadPool::stopped() const {
  MutexLock lock(mutex_);
  return stop_;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit wait loop (not the predicate overload): the condition
      // reads stop_/queue_, which the analysis can only check when the
      // read is lexically under the lock in this function.
      while (!stop_ && queue_.empty()) lock.wait(cv_);
      if (queue_.empty()) return;  // stop_ && empty
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::parallel_for_indexed(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // After shutdown size() is 0, so without this check the loop would run
  // entirely (and silently) on the calling thread; surface the misuse
  // with the same error submit() raises.
  if (stopped())
    throw std::runtime_error("ThreadPool: parallel_for_indexed after shutdown");
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  Mutex error_mutex;

  auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  // The caller is one of the size() participants, so at most size()
  // bodies run at once (a 1-worker pool runs the loop serially here).
  const std::size_t n_tasks =
      std::min(count, std::max<std::size_t>(size(), 1)) - 1;
  std::vector<std::future<void>> futs;
  futs.reserve(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) futs.push_back(submit(body));
  // Join the work from this thread, then drain queued tasks while waiting:
  // if every worker is itself blocked in a nested parallel_for_indexed,
  // progress still comes from the waiters running the queue.
  body();
  for (auto& f : futs) {
    while (f.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one())
        f.wait_for(std::chrono::milliseconds(1));
    }
    f.get();
  }
  if (first_error) std::rethrow_exception(first_error);
}

namespace {
std::atomic<std::size_t> g_global_pool_threads{0};
}  // namespace

ThreadPool& global_pool() {
  static ThreadPool pool(g_global_pool_threads.load());
  return pool;
}

void configure_global_pool(std::size_t threads) {
  g_global_pool_threads.store(threads);
}

}  // namespace bac
