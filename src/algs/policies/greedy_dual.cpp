#include "algs/policies/classical.hpp"

namespace bac {

void GreedyDualPolicy::reset(const Instance& inst) {
  offset_ = 0;
  const int n = inst.n_pages();
  page_cost_.resize(static_cast<std::size_t>(n));
  for (PageId p = 0; p < n; ++p)
    page_cost_[static_cast<std::size_t>(p)] =
        inst.blocks.cost(inst.blocks.block_of(p));
  credit_.assign(static_cast<std::size_t>(n), 0.0);
  by_credit_.reset(n);
}

void GreedyDualPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  const double cost = page_cost_[static_cast<std::size_t>(p)];
  auto& cr = credit_[static_cast<std::size_t>(p)];
  if (cache.contains(p)) {
    // Refresh credit to full cost (Landlord's reset-on-hit). Credits are
    // absolute (offset_ + cost), and offset_ only moves on an evicting
    // miss — so a re-hit with no eviction in between recomputes the same
    // credit and the heap entry is already right: skip the update (the
    // common case under locality).
    const double target = offset_ + cost;
    if (cr != target) {
      cr = target;
      by_credit_.update(p, target);
    }
    return;
  }
  if (cache.size() >= cache.capacity()) {
    // Charge rent: raise the offset to the minimum credit, evict a page
    // whose effective credit hit zero.
    PageId victim = 0;
    double min_credit = 0;
    by_credit_.pop(victim, min_credit);
    offset_ = min_credit;
    cache.evict(victim);
  }
  cache.fetch(p);
  cr = offset_ + cost;
  by_credit_.push(p, cr);
}

}  // namespace bac
