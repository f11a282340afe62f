#include "algs/policies/classical.hpp"

namespace bac {

void FifoPolicy::reset(const Instance& inst) {
  by_arrival_.reset(inst.n_pages());
}

void FifoPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  if (cache.contains(p)) return;
  if (cache.size() >= cache.capacity())
    cache.evict(by_arrival_.pop_front());
  cache.fetch(p);
  by_arrival_.push_back(p);
}

}  // namespace bac
