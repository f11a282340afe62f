#include "algs/policies/classical.hpp"

namespace bac {

void BeladyPolicy::reset(const Instance& inst) {
  const auto n = static_cast<std::size_t>(inst.n_pages());
  occurrences_.assign(n, {});
  cursor_.assign(n, 0);
  by_next_.reset(inst.n_pages());
  for (Time t = 1; t <= inst.horizon(); ++t)
    occurrences_[static_cast<std::size_t>(inst.request_at(t))].push_back(t);
}

Time BeladyPolicy::next_use(PageId p) const {
  const auto& occ = occurrences_[static_cast<std::size_t>(p)];
  const std::size_t c = cursor_[static_cast<std::size_t>(p)];
  // Treat "never again" as +infinity (a time beyond any horizon).
  return c < occ.size() ? occ[c] : static_cast<Time>(1) << 30;
}

void BeladyPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  const bool hit = cache.contains(p);
  // Advance p's cursor past the current request.
  ++cursor_[static_cast<std::size_t>(p)];

  if (hit) {
    by_next_.update(p, next_use(p));
    return;
  }
  if (cache.size() >= cache.capacity()) {
    PageId victim = 0;
    Time farthest = 0;
    by_next_.pop(victim, farthest);  // max-heap: farthest next use
    cache.evict(victim);
  }
  cache.fetch(p);
  by_next_.push(p, next_use(p));
}

}  // namespace bac
