#include "algs/policies/modern.hpp"

#include "obs/metrics.hpp"

namespace bac {

// --- page-level SIEVE -------------------------------------------------------

void SievePolicy::reset(const Instance& inst) {
  by_arrival_.reset(inst.n_pages());
  visited_.reset(inst.n_pages(), 0);
  hand_ = IntrusiveOrderList::kNone;
  hand_sweeps_ = 0;
}

void SievePolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  if (cache.contains(p)) {
    visited_[p] = 1;  // the whole hit path: one bit, no list surgery
    return;
  }
  if (cache.size() >= cache.capacity()) {
    // The hand sweeps oldest -> newest, clearing visited bits; the first
    // unvisited page goes. A full pass clears everything, so the scan
    // takes at most two passes.
    std::int32_t h =
        hand_ == IntrusiveOrderList::kNone ? by_arrival_.front() : hand_;
    while (visited_[h] != 0) {
      visited_[h] = 0;
      h = by_arrival_.next(h);
      if (h == IntrusiveOrderList::kNone) h = by_arrival_.front();  // wrap
      ++hand_sweeps_;
    }
    // Park the hand just past the victim; kNone resumes from the oldest.
    hand_ = by_arrival_.next(h);
    by_arrival_.erase(h);
    cache.evict(h);
  }
  by_arrival_.push_back(p);
  visited_[p] = 0;  // new pages start unvisited
  cache.fetch(p);
}

void SievePolicy::export_metrics(obs::MetricRegistry& registry) const {
  registry.counter("policy_hand_sweeps_total")
      .inc(static_cast<std::uint64_t>(hand_sweeps_));
}

// --- block-level SIEVE ------------------------------------------------------

void BlockSievePolicy::reset(const Instance& inst) {
  const int m = inst.blocks.n_blocks();
  by_arrival_.reset(m);
  visited_.reset(m, 0);
  cached_count_.reset(m, 0);
  hand_ = IntrusiveOrderList::kNone;
  hand_sweeps_ = 0;
  block_flushes_ = 0;
}

void BlockSievePolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  const BlockId b = cache.blocks().block_of(p);
  if (cache.contains(p)) {
    visited_[b] = 1;
    return;
  }
  if (!by_arrival_.contains(b)) {
    by_arrival_.push_back(b);
    visited_[b] = 0;  // arrival position set by the first resident page
  } else {
    visited_[b] = 1;  // a miss on a resident block still touches it
  }
  cache.fetch(p);
  cached_count_[b] += 1;
  while (cache.size() > cache.capacity()) {
    if (by_arrival_.size() == 1) {
      // Only the requested block remains: shed its other pages.
      cached_count_[b] -= cache.flush_block(b, p);
      break;
    }
    // The hand sweeps blocks oldest -> newest; the requested block is
    // skipped without losing its visited bit (it is being served).
    std::int32_t h =
        hand_ == IntrusiveOrderList::kNone ? by_arrival_.front() : hand_;
    while (h == b || visited_[h] != 0) {
      if (h != b) visited_[h] = 0;
      h = by_arrival_.next(h);
      if (h == IntrusiveOrderList::kNone) h = by_arrival_.front();  // wrap
      ++hand_sweeps_;
    }
    hand_ = by_arrival_.next(h);
    by_arrival_.erase(h);
    cached_count_[h] -= cache.flush_block(h);
    ++block_flushes_;
  }
}

void BlockSievePolicy::export_metrics(obs::MetricRegistry& registry) const {
  registry.counter("policy_hand_sweeps_total")
      .inc(static_cast<std::uint64_t>(hand_sweeps_));
  registry.counter("policy_block_flushes_total")
      .inc(static_cast<std::uint64_t>(block_flushes_));
}

}  // namespace bac
