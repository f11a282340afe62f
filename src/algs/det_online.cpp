#include "algs/det_online.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace bac {

void DetOnlineBlockAware::reset(const Instance& inst) {
  if (inst.k <= 0) throw std::invalid_argument("DetOnline: k must be positive");
  blocks_ = &inst.blocks;
  k_ = inst.k;
  now_ = 0;
  const auto n = static_cast<std::size_t>(inst.blocks.n_pages());
  const int n_blocks = inst.blocks.n_blocks();
  last_.assign(n, kNeverRequested);
  // All blocks flushed at time 0 (free initial clear).
  max_flush_.assign(static_cast<std::size_t>(n_blocks), 0);
  begin_.resize(static_cast<std::size_t>(n_blocks));
  size_.assign(static_cast<std::size_t>(n_blocks), 0);
  int slot = 0;
  for (BlockId b = 0; b < n_blocks; ++b) {
    begin_[static_cast<std::size_t>(b)] = slot;
    slot += inst.blocks.block_size(b);
  }
  entries_.assign(n, {});
  dual_obj_ = 0;
  primal_cost_ = 0;
  flushes_ = 0;
  max_load_ratio_ = 0;
  events_.clear();
}

void DetOnlineBlockAware::on_request(Time t, PageId p, CacheOps& cache) {
  // baclint: hot-path — the per-request bookkeeping must stay allocation-free
  if (t <= now_)
    throw std::invalid_argument("DetOnline: time must increase");
  now_ = t;
  const auto bi = static_cast<std::size_t>(blocks_->block_of(p));
  Time& r = last_[static_cast<std::size_t>(p)];

  // p's entry sits at r + 1 iff p was requested since its block's last
  // flush. Drop it: its marginal is now that of the entry before it.
  if (r >= max_flush_[bi]) {
    Entry* first = entries_.data() + begin_[bi];
    Entry* end = first + size_[bi]--;
    Entry* at = std::find_if(first, end,
                             [&](const Entry& e) { return e.t == r + 1; });
    std::copy(at + 1, end, at);
  }
  r = t;

  cache.fetch(p);  // free in the eviction cost model
  if (cache.size() > k_) overflow(t, p, cache);

  // Track p's alive time t + 1 at zero load: flushes at future times have
  // zero marginal at all past overflow events, this one included.
  entries_[static_cast<std::size_t>(begin_[bi] + size_[bi]++)] = {t + 1, 0.0};
}

void DetOnlineBlockAware::overflow(Time t, PageId p, CacheOps& cache) {
  // |C| = k + 1, so cap - f_tau(S) = 1 and each positive capped marginal
  // is exactly 1. Every entry has positive marginal, and a block's first
  // entry holds its largest load: the minimal slack c_B - load is over
  // first entries. Strict < keeps the lowest block id on ties.
  double delta = std::numeric_limits<double>::infinity();
  BlockId chosen = -1;
  const int n_blocks = blocks_->n_blocks();
  for (BlockId b = 0; b < n_blocks; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (size_[bi] == 0) continue;
    const double slack =
        blocks_->cost(b) - entries_[static_cast<std::size_t>(begin_[bi])].load;
    if (slack < delta) {
      delta = slack;
      chosen = b;
    }
  }
  if (chosen < 0)
    throw std::logic_error("DetOnline: no flush candidate at overflow");
  if (delta < 0) delta = 0;  // tight already (floating-point guard)

  if (log_events_) {
    DualEvent ev;
    ev.tau = t;
    ev.delta = delta;
    ev.max_flush = max_flush_;
    ev.last_request = last_;
    events_.push_back(std::move(ev));
  }

  // Raise y by delta: every entry gains delta of dual load; the dual
  // objective gains delta * 1.
  for (BlockId b = 0; b < n_blocks; ++b) {
    const auto bi = static_cast<std::size_t>(b);
    if (size_[bi] == 0) continue;
    Entry* first = entries_.data() + begin_[bi];
    for (Entry* e = first; e != first + size_[bi]; ++e) e->load += delta;
    max_load_ratio_ =
        std::max(max_load_ratio_, first->load / blocks_->cost(b));
  }
  dual_obj_ += delta;

  // Perform the flush (chosen, t): evict all cached pages of the block
  // except the just-requested page. Every entry of the block has zero
  // marginal from now on; on_request appends p's t + 1 if p is in it.
  max_flush_[static_cast<std::size_t>(chosen)] = t;
  size_[static_cast<std::size_t>(chosen)] = 0;
  const int evicted = cache.flush_block(chosen, p);
  if (evicted < 1)
    throw std::logic_error("DetOnline: flush evicted no pages");
  primal_cost_ += blocks_->cost(chosen);
  ++flushes_;
}

}  // namespace bac
