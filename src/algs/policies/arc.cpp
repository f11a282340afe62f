// ARC per Megiddo & Modha (FAST'03), Figure 4, with the four-case
// analysis kept in source order. T1/T2 are the two LRU lists (one shared
// SegmentedFifo: push_back = MRU insert, front = LRU victim); B1/B2 are
// the ghost lists. p is the adaptive target for |T1|: B1 ghost hits grow
// it (recency was undervalued), B2 ghost hits shrink it.
#include "algs/policies/modern.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace bac {

void ArcPolicy::reset(const Instance& inst) {
  const int n = inst.n_pages();
  c_ = inst.k;
  p_ = 0;
  t_.reset(n, 2);
  // ARC's invariants bound |B1| <= c and |T1|+|T2|+|B1|+|B2| <= 2c; the
  // ghost capacities are a backstop at exactly those bounds, never the
  // mechanism (the case analysis below does all deletions explicitly).
  b1_.reset(n, c_);
  b2_.reset(n, 2 * c_);
  ghost_hits_ = 0;
  p_adjustments_ = 0;
}

/// REPLACE(x, p) from the paper: evict T1's LRU into B1 when T1 is over
/// target (or exactly at target on a B2 ghost hit), else T2's LRU into
/// B2. Guarded so an empty list falls through to the other.
void ArcPolicy::replace(bool requested_in_b2, CacheOps& cache) {
  const int t1 = t_.size(kT1);
  const bool from_t1 =
      t1 >= 1 && (t1 > p_ || (requested_in_b2 && t1 == p_));
  if (from_t1 || t_.size(kT2) == 0) {
    if (t1 == 0) return;  // both lists empty: nothing to evict
    const std::int32_t victim = t_.pop_front(kT1);
    b1_.insert(victim);
    cache.evict(victim);
  } else {
    const std::int32_t victim = t_.pop_front(kT2);
    b2_.insert(victim);
    cache.evict(victim);
  }
}

void ArcPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  // Case I: hit in T1 or T2 — move to T2's MRU end.
  if (t_.contains(p)) {
    t_.move_back(p, kT2);
    return;
  }
  // Case II: ghost hit in B1 — recency list was too small, grow p.
  if (b1_.contains(p)) {
    const int delta = std::max(1, b2_.size() / b1_.size());
    p_ = std::min(c_, p_ + delta);
    ++p_adjustments_;
    ++ghost_hits_;
    b1_.erase(p);
    replace(false, cache);
    t_.push_back(kT2, p);
    cache.fetch(p);
    return;
  }
  // Case III: ghost hit in B2 — frequency list was too small, shrink p.
  if (b2_.contains(p)) {
    const int delta = std::max(1, b1_.size() / b2_.size());
    p_ = std::max(0, p_ - delta);
    ++p_adjustments_;
    ++ghost_hits_;
    b2_.erase(p);
    replace(true, cache);
    t_.push_back(kT2, p);
    cache.fetch(p);
    return;
  }
  // Case IV: full miss.
  const int t1 = t_.size(kT1);
  const int l1 = t1 + b1_.size();
  const int l2 = t_.size(kT2) + b2_.size();
  if (l1 == c_) {
    if (t1 < c_) {
      b1_.pop_front();
      replace(false, cache);
    } else {
      // B1 is empty and T1 holds the whole cache: discard T1's LRU
      // outright (no ghost — the paper's IV(a) else-branch).
      cache.evict(t_.pop_front(kT1));
    }
  } else if (l1 < c_ && l1 + l2 >= c_) {
    if (l1 + l2 >= 2 * c_) b2_.pop_front();  // == 2c by the invariant
    replace(false, cache);
  }
  t_.push_back(kT1, p);
  cache.fetch(p);
}

void ArcPolicy::export_metrics(obs::MetricRegistry& registry) const {
  registry.counter("policy_ghost_hits_total")
      .inc(static_cast<std::uint64_t>(ghost_hits_));
  registry.counter("policy_arc_p_adjustments_total")
      .inc(static_cast<std::uint64_t>(p_adjustments_));
}

}  // namespace bac
