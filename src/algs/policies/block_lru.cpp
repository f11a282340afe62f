#include "algs/policies/classical.hpp"

namespace bac {

void BlockLruPolicy::reset(const Instance& inst) {
  by_recency_.reset(inst.blocks.n_blocks());
}

void BlockLruPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  const BlockId b = cache.blocks().block_of(p);
  // Detach the requested block while we serve it; it is re-appended as
  // most-recent below (so the flush loop can never pick it as victim).
  if (by_recency_.contains(b)) by_recency_.erase(b);

  if (!cache.contains(p)) {
    // Fetch the page (or, with prefetch, the whole block).
    if (prefetch_) {
      for (PageId q : cache.blocks().pages_in(b)) cache.fetch(q);
    } else {
      cache.fetch(p);
    }

    // Flush LRU blocks until we fit; never the requested block. Every
    // other block with cached pages is in by_recency_, and the requested
    // block alone fits (beta <= k), so the list never runs dry here.
    while (cache.size() > cache.capacity())
      cache.flush_block(by_recency_.pop_front());
  }
  by_recency_.push_back(b);
}

}  // namespace bac
