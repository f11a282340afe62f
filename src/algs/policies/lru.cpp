#include "algs/policies/classical.hpp"

namespace bac {

void LruPolicy::reset(const Instance& inst) {
  by_recency_.reset(inst.n_pages());
}

void LruPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  if (cache.contains(p)) {
    by_recency_.erase(p);
  } else {
    if (cache.size() >= cache.capacity())
      cache.evict(by_recency_.pop_front());
    cache.fetch(p);
  }
  by_recency_.push_back(p);
}

}  // namespace bac
