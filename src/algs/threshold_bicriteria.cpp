#include "algs/threshold_bicriteria.hpp"

#include <algorithm>

namespace bac {

void ThresholdBicriteriaPolicy::reset(const Instance& inst) {
  // Virtual fractional cache of h = max(1, k/2) pages; the rounded cache
  // then provably fits within k.
  int h = std::max(1, inst.k / 2);
  if (h < inst.blocks.beta()) h = inst.blocks.beta();
  frac_.emplace(inst.blocks, h);
  prev_x_.assign(static_cast<std::size_t>(inst.n_pages()), 1.0);
}

void ThresholdBicriteriaPolicy::on_request(Time /*t*/, PageId p,
                                           CacheOps& cache) {
  const std::vector<double>& x = frac_->step(p);
  // Only pages whose x moved this step can cross the threshold, ascending
  // (the order a scan of every page would meet them in).
  const std::vector<PageId>& moved = frac_->moved();
  const BlockMap& blocks = cache.blocks();

  if (mode_ == Mode::Fetching) {
    // Evict everything above the threshold (free), then batch-fetch the
    // requested block's eligible pages on a miss. Every cached page had
    // x <= 1/2 when the step began (this sweep evicts the rest, fetches
    // take only x <= 1/2, and the capacity guard below only evicts or
    // fetches the request), so a page above 1/2 and cached now has
    // moved.
    for (const PageId q : moved)
      if (x[static_cast<std::size_t>(q)] > 0.5 && cache.contains(q))
        cache.evict(q);
    if (!cache.contains(p)) {
      for (PageId q : blocks.pages_in(blocks.block_of(p)))
        if (x[static_cast<std::size_t>(q)] <= 0.5) cache.fetch(q);
    }
  } else {
    // Eviction variant: crossing above 1/2 flushes the block's crossed
    // pages in one batch; fetching is free, so fetch only the request.
    for (const PageId q : moved) {
      if (x[static_cast<std::size_t>(q)] > 0.5 &&
          prev_x_[static_cast<std::size_t>(q)] <= 0.5 && cache.contains(q)) {
        for (PageId r : blocks.pages_in(blocks.block_of(q)))
          if (x[static_cast<std::size_t>(r)] > 0.5) cache.evict(r);
      }
    }
    if (!cache.contains(p)) cache.fetch(p);
  }

  // Safety: the fractional invariant bounds |{x <= 1/2}| by 2h <= k, but
  // guard against the h < beta adjustment edge with explicit eviction of
  // the largest-x cached pages.
  while (cache.size() > cache.capacity()) {
    PageId victim = -1;
    double worst = -1;
    for (PageId q : cache.pages()) {
      if (q == p) continue;
      if (x[static_cast<std::size_t>(q)] > worst) {
        worst = x[static_cast<std::size_t>(q)];
        victim = q;
      }
    }
    if (victim < 0) break;
    cache.evict(victim);
  }
  for (const PageId q : moved)
    prev_x_[static_cast<std::size_t>(q)] = x[static_cast<std::size_t>(q)];
}

}  // namespace bac
