// One shard of the concurrent data-plane: a single-threaded block-aware
// cache (a policy served through the step kernel, core/step_kernel.hpp)
// behind a mutex.
//
// A shard owns every page of the blocks assigned to it, so the paper's
// batched cost semantics stay exact under concurrency: any flush or
// batched fetch of a block happens entirely inside one shard's meter,
// within one of that shard's time steps. Requests for a shard's pages are
// serialized by the shard mutex; distinct shards share no mutable state
// and serve fully in parallel. Per-REQUEST service latency and per-call
// lock wait are recorded into mergeable log-bucketed histograms
// (obs/histogram.hpp) under the same lock, so the coordinator can fold
// shard sketches into exact (bucket-resolution) global tail quantiles at
// snapshot time.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>

#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/step_kernel.hpp"
#include "obs/histogram.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace bac::server {

/// Counters, occupancy and latency of one shard (CacheShard::snapshot) or
/// of the whole cache (ConcurrentCache::stats, the sum over shards).
struct ServerStats : CostCounters {
  int cached_pages = 0;
  int capacity = 0;  ///< the shard's k, or the total k over all shards
  /// Per-request service latency (lock wait + policy work), one sample
  /// per request — so p99/p999 describe requests, not batch means.
  obs::Histogram latency_us;
  /// Mutex acquisition wait per get_batch call (contention signal): 0
  /// for every acquisition that did not have to block.
  obs::Histogram lock_wait_us;
  /// Derived from latency_us by summarize_latency() (bucket-midpoint
  /// estimates; mean and max are exact); kept as flat fields for JSON
  /// emitters. NaN before any request — the repo-wide empty-histogram
  /// convention (obs::Histogram::mean), which write_json_number renders
  /// as null rather than a fake 0 us.
  double lat_p50_us = std::numeric_limits<double>::quiet_NaN();
  double lat_p99_us = std::numeric_limits<double>::quiet_NaN();
  double lat_mean_us = std::numeric_limits<double>::quiet_NaN();
  double lat_max_us = std::numeric_limits<double>::quiet_NaN();

  /// Add another shard's snapshot: counters, occupancy and capacity sum;
  /// the histograms merge bucket-wise (exact and associative, so the
  /// counts do not depend on how requests were dispatched). The lat_*
  /// fields are left to summarize_latency().
  ServerStats& operator+=(const ServerStats& o) {
    counters() += o;
    cached_pages += o.cached_pages;
    capacity += o.capacity;
    latency_us.merge(o.latency_us);
    lock_wait_us.merge(o.lock_wait_us);
    return *this;
  }

  /// Fill the lat_* fields from latency_us.
  void summarize_latency() noexcept {
    lat_p50_us = latency_us.quantile(0.50);
    lat_p99_us = latency_us.quantile(0.99);
    lat_mean_us = latency_us.mean();
    lat_max_us = latency_us.max();
  }
};

/// One shard's stats are the same record as the whole cache's.
using ShardSnapshot = ServerStats;

class CacheShard {
 public:
  /// `header` carries the full block map and this shard's capacity as its
  /// k (requests empty, as for streaming sources); it must outlive the
  /// shard — the ConcurrentCache coordinator owns it. The step kernel
  /// resets the policy on `header` and seeds it, as simulate() does.
  CacheShard(const Instance& header, std::unique_ptr<OnlinePolicy> policy,
             std::uint64_t seed);

  // The kernel points into itself; the shard must never move.
  CacheShard(const CacheShard&) = delete;
  CacheShard& operator=(const CacheShard&) = delete;

  /// Serve one request; true on hit. Thread-safe. Each request is one
  /// step of the shared step kernel, so the shard audits the policy as
  /// simulate() does: std::runtime_error if the requested page is left
  /// uncached or the shard capacity is exceeded. Stays, though no tool
  /// calls it: ConcurrentCache::get serves through it.
  bool get(PageId p);

  /// Serve `n` requests (all owned by this shard) under ONE lock
  /// acquisition; returns the hit count. Costs, counters, and audits are
  /// identical to n get() calls — each request is its own metered time
  /// step — so replays stay bit-identical to the unbatched path. Latency
  /// is recorded per REQUEST from a raw tick counter (util/timer.hpp's
  /// TickClock, a few ns per read): the first request's sample includes
  /// the lock wait — under closed-loop load the queueing delay at a hot
  /// shard is part of the service time a client observes. The lock is
  /// taken try-first, and lock_wait_us gets one sample per call: the
  /// tick-timed wait when try_lock() failed, else 0.
  long long get_batch(const PageId* ps, int n);

  [[nodiscard]] ShardSnapshot snapshot() const;

  /// Fold the shard policy's structural counters (ghost hits, hand
  /// sweeps, ...) into `registry` under the shard lock. Counters are
  /// event counts, so summing over shards is thread-count invariant —
  /// shard assignment is by block, not by thread.
  void export_policy_metrics(obs::MetricRegistry& registry) const;

 private:
  // Everything below the mutex is mutated only under it (the clang-tsa
  // preset proves this). policy_ is also reached through the kernel's
  // stored pointer, which is invisible to the analysis — the REQUIRES
  // discipline on the call sites (get_batch only) keeps that path locked
  // too.
  const TickClock ticks_;  ///< tick -> us rate, calibrated once per process
  mutable Mutex mutex_;
  std::unique_ptr<OnlinePolicy> policy_ GUARDED_BY(mutex_);
  StepKernel kernel_ GUARDED_BY(mutex_);
  obs::Histogram latency_us_ GUARDED_BY(mutex_);
  obs::Histogram lock_wait_us_ GUARDED_BY(mutex_);
};

}  // namespace bac::server
