#include "server/shard.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "util/timer.hpp"

namespace bac::server {

CacheShard::CacheShard(const Instance& header,
                       std::unique_ptr<OnlinePolicy> policy,
                       std::uint64_t seed)
    : header_(&header),
      policy_(std::move(policy)),
      cache_(header.n_pages()),
      meter_(header.blocks),
      ops_(header.blocks, cache_, meter_, header.k) {
  policy_->reset(*header_);
  policy_->seed(seed);
}

bool CacheShard::get(PageId p) { return get_batch(&p, 1) == 1; }

long long CacheShard::get_batch(const PageId* ps, int n) {
  if (n <= 0) return 0;
  // One tick read per request (the end of request i starts request i+1),
  // plus one before the lock. The first request's latency includes the
  // lock wait: under closed-loop load the queueing delay at a hot shard
  // is part of the service time a client observes. Recording per request
  // — not one sample of the batch mean — is what makes the p99/p999 of
  // latency_us_ meaningful: a single slow request in a 512-batch must
  // show up in the tail, not be diluted 512-fold.
  // baclint: hot-path — the per-request eviction path must stay allocation-free
  std::uint64_t prev = TickClock::now();
  bool waited = false;
  MutexLock lock(mutex_, waited);
  // Only real blocking is timed: an acquisition that try_lock() got at
  // once records a wait of 0 without reading the clock.
  lock_wait_us_.add(waited ? ticks_.micros(prev, TickClock::now()) : 0.0);
  long long batch_hits = 0;
  for (int i = 0; i < n; ++i) {
    const PageId p = ps[i];
    if (t_ == std::numeric_limits<Time>::max())
      throw std::runtime_error(
          "CacheShard: shard served 2^31-1 requests (Time is 32-bit)");
    ++t_;
    meter_.begin_step(t_);
    const bool hit = cache_.contains(p);
    if (hit) {
      ++hits_;
      ++batch_hits;
    } else {
      ++misses_;
    }
    policy_->on_request(t_, p, ops_);
    // Feasibility audit, as in the simulator — a server must not silently
    // repair a broken policy.
    if (!cache_.contains(p))
      throw std::runtime_error("CacheShard: policy " + policy_->name() +
                               " left requested page uncached");
    if (cache_.size() > header_->k)
      throw std::runtime_error("CacheShard: policy " + policy_->name() +
                               " exceeded shard capacity");
    const std::uint64_t now = TickClock::now();
    latency_us_.add(ticks_.micros(prev, now));
    prev = now;
  }
  return batch_hits;
}

ShardSnapshot CacheShard::snapshot() const {
  MutexLock lock(mutex_);
  ShardSnapshot s;
  s.requests = hits_ + misses_;
  s.hits = hits_;
  s.misses = misses_;
  s.eviction_cost = meter_.eviction_cost();
  s.fetch_cost = meter_.fetch_cost();
  s.classic_eviction_cost = meter_.classic_eviction_cost();
  s.classic_fetch_cost = meter_.classic_fetch_cost();
  s.evict_block_events = meter_.evict_block_events();
  s.fetch_block_events = meter_.fetch_block_events();
  s.evicted_pages = meter_.evicted_pages();
  s.fetched_pages = meter_.fetched_pages();
  s.cached_pages = cache_.size();
  s.capacity = header_->k;
  s.latency_us = latency_us_;
  s.lock_wait_us = lock_wait_us_;
  if (s.requests > 0) {
    s.lat_p50_us = s.latency_us.quantile(0.50);
    s.lat_p99_us = s.latency_us.quantile(0.99);
    s.lat_mean_us = s.latency_us.mean();
    s.lat_max_us = s.latency_us.max();
  }
  return s;
}

void CacheShard::export_policy_metrics(obs::MetricRegistry& registry) const {
  MutexLock lock(mutex_);
  policy_->export_metrics(registry);
}

}  // namespace bac::server
