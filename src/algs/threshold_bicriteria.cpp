#include "algs/threshold_bicriteria.hpp"

#include <algorithm>

namespace bac {

void ThresholdBicriteriaPolicy::reset(const Instance& inst) {
  frac_.emplace(inst.blocks, std::max(1, inst.k / 2));
}

void ThresholdBicriteriaPolicy::on_request(Time /*t*/, PageId p,
                                           CacheOps& cache) {
  const std::vector<double>& x = frac_->step(p);
  for (const PageId q : frac_->moved())
    if (x[static_cast<std::size_t>(q)] > 0.5) cache.evict(q);
  cache.fetch(p);
}

}  // namespace bac
