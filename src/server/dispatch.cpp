#include "server/dispatch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <thread>

#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace bac::server {

namespace {

/// Requests a worker hands to ConcurrentCache::get_batch per call; the
/// batch takes one lock acquisition per shard it hits.
constexpr std::size_t kDispatchBatch = 512;

/// Run one worker per lane over its request list, timing only the
/// parallel serve: workers block on a start gate until every thread is
/// spawned, so the wall clock excludes thread-creation cost (which
/// would otherwise bias cross-thread-count throughput comparisons).
/// The first worker exception is rethrown after joins.
double run_workers(ConcurrentCache& cache,
                   const std::vector<std::vector<PageId>>& lanes) {
  std::exception_ptr first_error;
  Mutex error_mutex;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(lanes.size());
  try {
    for (const std::vector<PageId>& lane : lanes) {
      workers.emplace_back([&cache, &lane, &go, &first_error, &error_mutex] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        try {
          for (std::size_t i = 0; i < lane.size(); i += kDispatchBatch)
            cache.get_batch(
                lane.data() + i,
                static_cast<int>(std::min(kDispatchBatch, lane.size() - i)));
        } catch (...) {
          MutexLock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  } catch (...) {
    // A failed spawn (thread limit) must not unwind a vector of live
    // joinable threads — that calls std::terminate. Release and join
    // what started, then surface the error to the caller.
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    throw;
  }
  Stopwatch clock;
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  const double seconds = clock.seconds();
  if (first_error) std::rethrow_exception(first_error);
  return seconds;
}

void check_threads(int n_threads) {
  if (n_threads < 1)
    throw std::invalid_argument("serve: n_threads must be >= 1");
}

}  // namespace

double serve_partitioned(ConcurrentCache& cache,
                         const std::vector<PageId>& requests, int n_threads) {
  check_threads(n_threads);
  std::vector<std::vector<PageId>> lanes(
      static_cast<std::size_t>(n_threads));
  for (const PageId p : requests)
    lanes[static_cast<std::size_t>(cache.shard_of(p) % n_threads)]
        .push_back(p);
  return run_workers(cache, lanes);
}

double serve_chunked(ConcurrentCache& cache,
                     const std::vector<PageId>& requests, int n_threads) {
  check_threads(n_threads);
  std::vector<std::vector<PageId>> lanes(
      static_cast<std::size_t>(n_threads));
  const std::size_t total = requests.size();
  const std::size_t per =
      (total + static_cast<std::size_t>(n_threads) - 1) /
      static_cast<std::size_t>(n_threads);
  for (std::size_t start = 0, lane = 0; start < total; start += per, ++lane) {
    const std::size_t end = std::min(total, start + per);
    lanes[lane].assign(requests.begin() + static_cast<std::ptrdiff_t>(start),
                       requests.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return run_workers(cache, lanes);
}

}  // namespace bac::server
