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
// block's size in each block) whatever the trace length, and an overflow
// does O(n_blocks + k) work. The scan over blocks stays linear: ties go
// to the lowest block id, which a slack heap, re-keyed after every raise,
// would not keep when rounding ties two loads. The version that kept an
// entry per request and rescanned them all is the test twin
// verify::ReferenceDetOnline; the two agree bit for bit.
//
// The accumulated dual objective is a certified lower bound on the optimal
// (fractional) eviction cost — benches use it as the denominator for
// competitive-ratio estimates where exact OPT is out of reach.
#pragma once

#include <vector>

#include "algs/dual_verifier.hpp"
#include "core/policy.hpp"

namespace bac {

class DetOnlineBlockAware final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "BA-Det(Alg1)"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<DetOnlineBlockAware>(*this);
  }

  /// Feasible dual objective accumulated so far (lower bound on OPT_evict).
  [[nodiscard]] double dual_objective() const noexcept { return dual_obj_; }
  /// Number of flushes performed (primal cost = sum of their block costs).
  [[nodiscard]] long long flushes() const noexcept { return flushes_; }
  /// Primal cost paid so far (sum of flushed blocks' costs).
  [[nodiscard]] double primal_cost() const noexcept { return primal_cost_; }

  /// Test hook: maximum dual load observed relative to its block cost
  /// (must stay <= 1 + epsilon for dual feasibility).
  [[nodiscard]] double max_load_ratio() const noexcept {
    return max_load_ratio_;
  }

  /// Record every dual increase with full state snapshots, enabling an
  /// exhaustive off-line audit via audit_dual_feasibility. O(n) extra work
  /// per overflow — tests and small experiments only.
  void enable_event_log() { log_events_ = true; }
  [[nodiscard]] const std::vector<DualEvent>& event_log() const noexcept {
    return events_;
  }

 private:
  /// Raise y on an overflow at time t and flush the tightest block.
  void overflow(Time t, PageId p, CacheOps& cache);

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
  double dual_obj_ = 0;
  double primal_cost_ = 0;
  long long flushes_ = 0;
  double max_load_ratio_ = 0;
  bool log_events_ = false;
  std::vector<DualEvent> events_;
};

}  // namespace bac
