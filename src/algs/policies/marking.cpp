#include "algs/policies/classical.hpp"

namespace bac {

void MarkingPolicy::reset(const Instance& inst) {
  const auto n = static_cast<std::size_t>(inst.n_pages());
  marked_.assign(n, 0);
  unmarked_cached_.clear();
  unmarked_pos_.assign(n, -1);
}

void MarkingPolicy::set_unmarked(PageId p, bool unmarked) {
  auto& pos = unmarked_pos_[static_cast<std::size_t>(p)];
  if (unmarked) {
    if (pos >= 0) return;
    pos = static_cast<std::int32_t>(unmarked_cached_.size());
    unmarked_cached_.push_back(p);
  } else {
    if (pos < 0) return;
    const PageId moved = unmarked_cached_.back();
    unmarked_cached_[static_cast<std::size_t>(pos)] = moved;
    unmarked_pos_[static_cast<std::size_t>(moved)] = pos;
    unmarked_cached_.pop_back();
    pos = -1;
  }
}

void MarkingPolicy::on_request(Time /*t*/, PageId p, CacheOps& cache) {
  if (cache.contains(p)) {
    if (!marked_[static_cast<std::size_t>(p)]) {
      marked_[static_cast<std::size_t>(p)] = 1;
      set_unmarked(p, false);
    }
    return;
  }

  if (cache.size() >= cache.capacity()) {
    if (unmarked_cached_.empty()) {
      // New phase: unmark all cached pages.
      for (PageId q : cache.pages()) {
        marked_[static_cast<std::size_t>(q)] = 0;
        set_unmarked(q, true);
      }
    }
    const auto idx =
        static_cast<std::size_t>(rng_.below(unmarked_cached_.size()));
    const PageId victim = unmarked_cached_[idx];
    set_unmarked(victim, false);
    cache.evict(victim);
  }
  cache.fetch(p);
  marked_[static_cast<std::size_t>(p)] = 1;
  set_unmarked(p, false);
}

}  // namespace bac
