#include "algs/policies/classical.hpp"

namespace bac {

void BlockLruPolicy::reset(const Instance& inst) {
  const auto m = static_cast<std::size_t>(inst.blocks.n_blocks());
  by_recency_.reset(inst.blocks.n_blocks());
  cached_count_.assign(m, 0);
}

void BlockLruPolicy::note_evicted(BlockId b, int n_evicted) {
  cached_count_[static_cast<std::size_t>(b)] -= n_evicted;
}

void BlockLruPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  const BlockId b = cache.blocks().block_of(p);
  // Detach the requested block while we serve it; it is re-appended as
  // most-recent below (so the flush loop can never pick it as victim).
  if (by_recency_.contains(b)) by_recency_.erase(b);

  if (!cache.contains(p)) {
    // Fetch the page (or, with prefetch, the whole block).
    int fetched = 0;
    if (prefetch_) {
      for (PageId q : cache.blocks().pages_in(b)) {
        if (!cache.contains(q)) {
          cache.fetch(q);
          ++fetched;
        }
      }
    } else {
      cache.fetch(p);
      fetched = 1;
    }
    cached_count_[static_cast<std::size_t>(b)] += fetched;

    // Flush LRU blocks until we fit; never the requested block.
    while (cache.size() > cache.capacity()) {
      const BlockId victim = by_recency_.pop_front();
      const int evicted = cache.flush_block(victim);
      note_evicted(victim, evicted);
      if (cache.size() > cache.capacity() &&
          cached_count_[static_cast<std::size_t>(b)] > 0 &&
          by_recency_.empty()) {
        // Only the requested block remains: shed its other pages.
        const int shed = cache.flush_block(b, p);
        note_evicted(b, shed);
      }
    }
  }
  by_recency_.push_back(b);
}

}  // namespace bac
