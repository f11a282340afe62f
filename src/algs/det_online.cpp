#include "algs/det_online.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace bac {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void DetOnlineBlockAware::reset(const Instance& inst) {
  if (inst.k <= 0) throw std::invalid_argument("DetOnline: k must be positive");
  blocks_ = &inst.blocks;
  k_ = inst.k;
  now_ = 0;
  const auto n = static_cast<std::size_t>(inst.blocks.n_pages());
  const int n_blocks = inst.blocks.n_blocks();
  const auto nb = static_cast<std::size_t>(n_blocks);
  last_.assign(n, kNeverRequested);
  // All blocks flushed at time 0 (free initial clear).
  max_flush_.assign(nb, 0);
  begin_.resize(nb);
  size_.assign(nb, 0);
  int slot = 0;
  for (BlockId b = 0; b < n_blocks; ++b) {
    begin_[static_cast<std::size_t>(b)] = slot;
    slot += inst.blocks.block_size(b);
  }
  entries_.assign(n, {});
  // Every block starts empty: all slacks +inf, every leaf in place.
  leaves_ = std::bit_ceil(std::max<std::size_t>(nb, 1));
  tree_.resize(2 * leaves_);
  for (std::size_t b = 0; b < leaves_; ++b)
    tree_[leaves_ + b] = {kInf, static_cast<BlockId>(b)};
  rebuild_tree();
  stale_ = false;
  dirty_.assign(nb, 0);
  dirty_list_.resize(nb);
  n_dirty_ = 0;
  dual_obj_ = 0;
  primal_cost_ = 0;
  flushes_ = 0;
  raises_ = 0;
  max_load_ratio_ = 0;
}

void DetOnlineBlockAware::on_request(Time t, PageId p, CacheOps& cache) {
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
    if (at == first) touch(bi);
    std::copy(at + 1, end, at);
  }
  r = t;

  cache.fetch(p);  // free in the eviction cost model
  if (cache.size() > k_) overflow(t, p, cache);

  // Track p's alive time t + 1 at zero load: flushes at future times have
  // zero marginal at all past overflow events, this one included.
  if (size_[bi] == 0) touch(bi);
  entries_[static_cast<std::size_t>(begin_[bi] + size_[bi]++)] = {t + 1, 0.0};
}

double DetOnlineBlockAware::slack_of(std::size_t bi) const {
  if (size_[bi] == 0) return kInf;
  const double load = entries_[static_cast<std::size_t>(begin_[bi])].load;
  return blocks_->cost(static_cast<BlockId>(bi)) - load;
}

void DetOnlineBlockAware::rebuild_tree() {
  for (std::size_t i = leaves_ - 1; i > 0; --i) play(i);
}

void DetOnlineBlockAware::refresh_tree() {
  const std::size_t pending = n_dirty_;
  n_dirty_ = 0;
  for (std::size_t j = 0; j < pending; ++j) {
    const auto bi = static_cast<std::size_t>(dirty_list_[j]);
    dirty_[bi] = 0;
    tree_[leaves_ + bi].slack = slack_of(bi);
  }
  if (stale_) return;
  for (std::size_t j = 0; j < pending; ++j) {
    const auto leaf = leaves_ + static_cast<std::size_t>(dirty_list_[j]);
    for (std::size_t i = leaf / 2; i > 0; i /= 2) play(i);
  }
}

void DetOnlineBlockAware::overflow(Time t, PageId p, CacheOps& cache) {
  // |C| = k + 1, so cap - f_tau(S) = 1 and each positive capped marginal
  // is exactly 1. Every entry has positive marginal, and a block's first
  // entry holds its largest load: the minimal slack c_B - load is the
  // tree's root, the lowest block id on ties.
  refresh_tree();
  Node best = tree_[1];
  if (stale_) {
    // Since the last raise only the leaves are current: scan them, where
    // strict < keeps the lowest block id, as the tree does.
    best = tree_[leaves_];
    const auto end = leaves_ + static_cast<std::size_t>(blocks_->n_blocks());
    for (std::size_t i = leaves_ + 1; i < end; ++i)
      if (tree_[i].slack < best.slack) best = tree_[i];
  }
  const BlockId chosen = best.block;
  double delta = best.slack;
  if (delta == kInf)
    throw std::logic_error("DetOnline: no flush candidate at overflow");
  if (delta < 0) delta = 0;  // tight already (floating-point guard)

  // Raise y by delta: every entry gains delta of dual load; the dual
  // objective gains delta * 1. At delta = 0 nothing moves (see header).
  if (delta > 0) {
    const int n_blocks = blocks_->n_blocks();
    for (BlockId b = 0; b < n_blocks; ++b) {
      const auto bi = static_cast<std::size_t>(b);
      if (size_[bi] == 0) continue;
      Entry* first = entries_.data() + begin_[bi];
      for (Entry* e = first; e != first + size_[bi]; ++e) e->load += delta;
      max_load_ratio_ =
          std::max(max_load_ratio_, first->load / blocks_->cost(b));
      tree_[leaves_ + bi].slack = slack_of(bi);
    }
    stale_ = true;
    dual_obj_ += delta;
    ++raises_;
  } else if (stale_) {
    rebuild_tree();
    stale_ = false;
  }

  // Perform the flush (chosen, t): evict all cached pages of the block
  // except the just-requested page. Every entry of the block has zero
  // marginal from now on; on_request appends p's t + 1 if p is in it.
  const auto ci = static_cast<std::size_t>(chosen);
  max_flush_[ci] = t;
  size_[ci] = 0;
  touch(ci);
  const int evicted = cache.flush_block(chosen, p);
  if (evicted < 1)
    throw std::logic_error("DetOnline: flush evicted no pages");
  primal_cost_ += blocks_->cost(chosen);
  ++flushes_;
}

void DetOnlineBlockAware::export_metrics(obs::MetricRegistry& registry) const {
  registry.counter("policy_block_flushes_total")
      .inc(static_cast<std::uint64_t>(flushes_));
  registry.counter("policy_dual_raises_total")
      .inc(static_cast<std::uint64_t>(raises_));
}

}  // namespace bac
