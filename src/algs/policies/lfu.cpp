#include "algs/policies/classical.hpp"

namespace bac {

void LfuPolicy::reset(const Instance& inst) {
  freq_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
  by_freq_.reset(inst.n_pages());
}

void LfuPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  auto& f = freq_[static_cast<std::size_t>(p)];
  if (cache.contains(p)) {
    by_freq_.update(p, ++f);
    return;
  }
  if (cache.size() >= cache.capacity()) {
    PageId victim = 0;
    long long key = 0;
    by_freq_.pop(victim, key);
    cache.evict(victim);
  }
  cache.fetch(p);
  by_freq_.push(p, ++f);
}

}  // namespace bac
