// Algorithm 1: the k-competitive deterministic online algorithm for
// block-aware caching with eviction cost (Theorem 3.3).
//
// Primal-dual over the submodular-cover LP (P)/(D). On a cache overflow at
// time tau the algorithm raises the dual variable y_S^tau until the dual
// constraint of some flush (B, t) becomes tight, then performs the flush
// (B, tau). Since exactly one page is requested per step, an overflow
// always has |C| = k + 1, so n - k - f_tau(S) = 1 and every non-zero capped
// marginal equals 1; raising y therefore adds the same increment to the
// dual load of every flush with positive marginal, and the first
// constraint to tighten is the one with maximal accumulated load.
//
// Dual-load bookkeeping. Let m_B be block B's last flush time and r(q) the
// last request of page q. At an overflow at tau, a flush (B, t) with
// m_B < t <= tau has positive marginal iff some page of B has
// m_B <= r(q) < t. The times worth tracking are those that were alive,
// r(q) + 1 for some page, at some point since m_B: any other time is
// dominated by the nearest such time below it (same or larger load,
// tighter no earlier). Each block keeps exactly one entry per page q of B
// with r(q) >= m_B (exactly B's cached pages), at its current alive time
// r(q) + 1, oldest first, and every entry gains every increment from its
// creation on.
//
//  - Re-requesting q erases its entry at r + 1 and appends t + 1. From
//    then on the flush at r + 1 has the marginal of the entry before it
//    (or none) and no more load than that entry, so it is never the
//    tightest: dropping it changes no choice. The new entry is appended
//    after the overflow step of request t; a flush after t has zero
//    marginal at t.
//  - An older entry has received every increment a younger one has, all
//    from the same 0.0, and fl(x + delta) is monotone in x. So a block's
//    first entry holds its largest load, to the last bit: the overflow
//    reads one entry per block for the minimal slack c_B - load, and
//    max_load_ratio() reads only first entries.
//  - A flush of B clears its entries; the kept page's t + 1 is appended
//    after it.
//
// So the state is one entry per cached page (at most k + 1, and at most a
// block's size in each block) whatever the trace length.
//
// Raise-free overflows. When blocks share a cost, nearly every overflow
// raises y by exactly 0 (99.5% on blocklocal at n = 4096, k = 1024, unit
// costs): one raise makes many blocks tight at once, and the overflows
// after it flush them one by one (with distinct costs nearly every
// overflow raises). An overflow with delta = 0 skips the raise: adding
// +0.0 leaves every load's bits as they were (loads start at +0.0 and
// never become -0.0), and the dual objective stays the same.
// max_load_ratio() cannot move either: loads change only at raises, and
// at the last raise each block's first entry already held the block's
// largest load, which the ratio then took in. Each block keeps its slack
// c_B - (first entry's load), +inf when empty, which changes only where
// the first entry changes: a re-request of the page whose entry is
// first, an append to an empty block, a flush, and a raise. A raise
// (delta > 0) recomputes every slack.
//
// The flush block comes from a min tournament tree over the slacks, whose
// padded leaves hold +inf. A right child wins only when its slack is
// strictly smaller, so the root is the lowest-id block of minimal slack:
// the choice of a left-to-right scan with strict <, bit for bit, also
// when rounding ties two loads, because the tree compares the same doubles
// the scan did. A block whose first entry changed goes on a dirty list,
// and the next overflow refreshes its path to the root. So a request pays
// one flag check per first-entry change, and a raise-free overflow costs
// O(dirty * log n_blocks). After a raise the inner nodes are stale:
// overflows scan the leaves, with the same strict <, until the first
// raise-free one rebuilds the tree in O(n_blocks). So where nearly
// every overflow raises (distinct costs), an overflow scans once, as it
// always did, and builds no tree it would not use. The version that kept
// an entry per request and rescanned them all at every overflow is the
// test twin verify::ReferenceDetOnline; the two agree bit for bit.
//
// The accumulated dual objective is a certified lower bound on the optimal
// (fractional) eviction cost — benches use it as the denominator for
// competitive-ratio estimates where exact OPT is out of reach.
#pragma once

#include <cstddef>
#include <vector>

#include "core/policy.hpp"

namespace bac {

class DetOnlineBlockAware final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "BA-Det(Alg1)"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  /// policy_block_flushes_total (flushes()) and policy_dual_raises_total
  /// (raises()).
  void export_metrics(obs::MetricRegistry& registry) const override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<DetOnlineBlockAware>(*this);
  }

  /// Feasible dual objective accumulated so far (lower bound on OPT_evict).
  [[nodiscard]] double dual_objective() const noexcept { return dual_obj_; }
  /// Number of flushes performed (primal cost = sum of their block costs).
  [[nodiscard]] long long flushes() const noexcept { return flushes_; }
  /// Overflows that raised y by a positive delta. Every overflow flushes
  /// once; the other flushes() - raises() found a block already tight.
  [[nodiscard]] long long raises() const noexcept { return raises_; }
  /// Primal cost paid so far (sum of flushed blocks' costs).
  [[nodiscard]] double primal_cost() const noexcept { return primal_cost_; }

  /// Test hook: maximum dual load observed relative to its block cost
  /// (must stay <= 1 + epsilon for dual feasibility).
  [[nodiscard]] double max_load_ratio() const noexcept {
    return max_load_ratio_;
  }

 private:
  /// Raise y on an overflow at time t and flush the tightest block.
  void overflow(Time t, PageId p, CacheOps& cache);
  /// Queue block bi's slack for recomputation at the next overflow.
  void touch(std::size_t bi) {
    if (dirty_[bi]) return;
    dirty_[bi] = 1;
    dirty_list_[n_dirty_++] = static_cast<BlockId>(bi);
  }
  /// Recompute the dirty blocks' leaves and, unless the tree is stale,
  /// their paths to the root.
  void refresh_tree();
  /// Recompute every internal node of the tree from its children.
  void rebuild_tree();
  /// Set tree node i to the winner of its children: the right child only
  /// if its slack is strictly smaller.
  void play(std::size_t i) {
    const Node& l = tree_[2 * i];
    const Node& r = tree_[2 * i + 1];
    tree_[i] = r.slack < l.slack ? r : l;
  }
  /// c_B - first entry's load, or +inf when block bi is empty.
  [[nodiscard]] double slack_of(std::size_t bi) const;

  /// The flush at alive time t = r(q) + 1 and its dual load.
  struct Entry {
    Time t = 0;
    double load = 0;
  };

  const BlockMap* blocks_ = nullptr;
  int k_ = 0;
  Time now_ = 0;
  std::vector<Time> last_;       // r(q) per page
  std::vector<Time> max_flush_;  // m_B per block
  // Block B's entries are entries_[begin_[B], begin_[B] + size_[B]),
  // oldest first; reset() gives each block room for all its pages.
  std::vector<int> begin_;
  std::vector<int> size_;
  std::vector<Entry> entries_;
  // A block and its slack c_B - first entry's load (+inf if empty).
  struct Node {
    double slack;
    BlockId block;
  };
  // tree_[leaves_ + B] is block B's leaf, current unless B is dirty (the
  // padded leaves past n_blocks hold +inf), and node i < leaves_ holds the
  // winner of nodes 2i and 2i + 1.
  std::vector<Node> tree_;
  std::size_t leaves_ = 1;
  bool stale_ = false;  // the inner nodes predate the last raise
  std::vector<char> dirty_;
  std::vector<BlockId> dirty_list_;  // the first n_dirty_ are pending
  std::size_t n_dirty_ = 0;
  double dual_obj_ = 0;
  double primal_cost_ = 0;
  long long flushes_ = 0;
  long long raises_ = 0;
  double max_load_ratio_ = 0;
};

}  // namespace bac
