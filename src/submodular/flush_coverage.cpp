#include "submodular/flush_coverage.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace bac {

std::uint64_t fresh_stamp() noexcept {
  // Relaxed: a stamp is only ever compared for equality, so all that
  // matters is that no two calls return the same value.
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

FlushCoverage::FlushCoverage(const BlockMap& blocks, int k)
    : blocks_(&blocks), k_(k), cap_(std::max(0, blocks.n_pages() - k)) {
  if (k <= 0) throw std::invalid_argument("FlushCoverage: k must be positive");
  last_.assign(static_cast<std::size_t>(blocks.n_pages()), kNeverRequested);
  sorted_last_.resize(static_cast<std::size_t>(blocks.n_blocks()));
  stamps_.resize(static_cast<std::size_t>(blocks.n_blocks()));
  for (BlockId b = 0; b < blocks.n_blocks(); ++b) {
    sorted_last_[static_cast<std::size_t>(b)].assign(
        blocks.pages_in(b).size(), kNeverRequested);
    stamps_[static_cast<std::size_t>(b)] = fresh_stamp();
  }
}

void FlushCoverage::advance(PageId p, Time t,
                            std::span<FlushSet* const> sets) {
  if (t <= now_)
    throw std::invalid_argument("FlushCoverage::advance: time must increase");

  // Update cached g of every registered set before r(p, .) changes:
  // p's missing-status can only go missing -> present (its last request
  // becomes the current time, which is >= every flush time in any set).
  for (FlushSet* s : sets)
    if (s->missing(p)) --s->g_;

  // Maintain the per-block sorted list: remove old value, insert new.
  const Time old = last_[static_cast<std::size_t>(p)];
  const BlockId b = blocks_->block_of(p);
  auto& list = sorted_last_[static_cast<std::size_t>(b)];
  auto it = std::lower_bound(list.begin(), list.end(), old);
  // old value is guaranteed present
  list.erase(it);
  list.insert(std::upper_bound(list.begin(), list.end(), t), t);
  stamps_[static_cast<std::size_t>(b)] = fresh_stamp();
  last_[static_cast<std::size_t>(p)] = t;
  now_ = t;
}

int FlushCoverage::count_below(BlockId b, Time m) const {
  const auto& list = sorted_last_[static_cast<std::size_t>(b)];
  return static_cast<int>(
      std::lower_bound(list.begin(), list.end(), m) - list.begin());
}

std::vector<Time> FlushCoverage::alive_times(BlockId b) const {
  std::vector<Time> out;
  alive_times(b, out);
  return out;
}

void FlushCoverage::alive_times(BlockId b, std::vector<Time>& out) const {
  const auto& list = sorted_last_[static_cast<std::size_t>(b)];
  out.clear();
  out.reserve(list.size());
  for (Time r : list) {
    const Time t = (r == kNeverRequested) ? 0 : r + 1;
    if (out.empty() || out.back() != t) out.push_back(t);
  }
}

FlushSet::FlushSet(const FlushCoverage& cov, Time init_flush_time)
    : cov_(&cov),
      max_flush_(static_cast<std::size_t>(cov.blocks().n_blocks()),
                 init_flush_time) {
  recompute();
}

FlushSet::FlushSet(const FlushCoverage& cov) : FlushSet(cov, 0) {}

FlushSet FlushSet::empty(const FlushCoverage& cov) {
  return FlushSet(cov, kNeverRequested);
}

int FlushSet::g_marginal(BlockId b, Time t) const {
  const Time m = max_flush(b);
  if (t <= m) return 0;
  return cov_->count_below(b, t) - (m == kNeverRequested ? 0 : cov_->count_below(b, m));
}

int FlushSet::f_marginal(BlockId b, Time t) const {
  const int cap = cov_->cap();
  if (g_ >= cap) return 0;
  return std::min(g_marginal(b, t), cap - g_);
}

int FlushSet::add_flush(BlockId b, Time t) {
  if (t > cov_->now())
    throw std::invalid_argument("FlushSet::add_flush: future flush");
  const int delta = g_marginal(b, t);
  if (t > max_flush(b)) max_flush_[static_cast<std::size_t>(b)] = t;
  g_ += delta;
  return delta;
}

void FlushSet::recompute() {
  g_ = 0;
  for (BlockId b = 0; b < cov_->blocks().n_blocks(); ++b) {
    const Time m = max_flush(b);
    if (m != kNeverRequested) g_ += cov_->count_below(b, m);
  }
}

}  // namespace bac
