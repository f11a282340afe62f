#include "server/shard.hpp"

#include "util/timer.hpp"

namespace bac::server {

CacheShard::CacheShard(const Instance& header,
                       std::unique_ptr<OnlinePolicy> policy,
                       std::uint64_t seed)
    : policy_(std::move(policy)), kernel_(header, *policy_, seed) {}

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
  std::uint64_t prev = TickClock::now();
  bool waited = false;
  MutexLock lock(mutex_, waited);
  // Only real blocking is timed: an acquisition that try_lock() got at
  // once records a wait of 0 without reading the clock.
  lock_wait_us_.add(waited ? ticks_.micros(prev, TickClock::now()) : 0.0);
  long long batch_hits = 0;
  for (int i = 0; i < n; ++i) {
    if (kernel_.serve(ps[i])) ++batch_hits;
    const std::uint64_t now = TickClock::now();
    latency_us_.add(ticks_.micros(prev, now));
    prev = now;
  }
  return batch_hits;
}

ShardSnapshot CacheShard::snapshot() const {
  MutexLock lock(mutex_);
  ShardSnapshot s;
  s.counters() = kernel_.counters();
  s.cached_pages = kernel_.cache().size();
  s.capacity = kernel_.capacity();
  s.latency_us = latency_us_;
  s.lock_wait_us = lock_wait_us_;
  s.summarize_latency();
  return s;
}

void CacheShard::export_policy_metrics(obs::MetricRegistry& registry) const {
  MutexLock lock(mutex_);
  policy_->export_metrics(registry);
}

}  // namespace bac::server
