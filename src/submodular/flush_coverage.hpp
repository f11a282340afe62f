// The paper's submodular flush-coverage function f_tau (Section 3.1).
//
// A *flush* (B, t) evicts all cached pages of block B at time t. Page p is
// missing at time tau under a flush set S iff S contains a flush (B(p), t)
// with r(p, tau) < t <= tau; equivalently, with
//     m_B(tau) := max{ t : (B, t) in S, t <= tau }   (-1 if none)
// p is missing iff r(p, tau) < m_{B(p)}(tau). Therefore
//     g_tau(S)  =  sum_B |{ p in B : r(p, tau) < m_B(tau) }|
//     f_tau(S)  =  min(n - k, g_tau(S))
// g_tau is a coverage function (Claim 3.1), so f_tau is monotone submodular;
// the decomposition above makes every evaluation two binary searches per
// block and every marginal O(log beta).
//
// FlushCoverage owns the dynamic last-request state (r(p, tau) for the
// current tau); FlushSet is a set of flushes represented by per-block
// maximum flush times with a cached g value, updated in O(1) per request.
//
// Stamps. FlushCoverage and FlushVars give each block a 64-bit stamp,
// drawn from fresh_stamp() whenever that block's contents change (here:
// its sorted last-request list). Every stamp is drawn once, so equal
// stamps mean equal contents, across objects and their copies: a copy
// keeps its source's stamps, and a later change to either draws a stamp
// neither had. Stamps are only compared, never ordered or reported, so
// caches (ThresholdSeparation's per-block state) can key on them and
// skip comparing contents.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"

namespace bac {

class FlushSet;

/// A value no earlier call returned, in this process, from any thread.
[[nodiscard]] std::uint64_t fresh_stamp() noexcept;

class FlushCoverage {
 public:
  /// `k` is the cache size; the cap of f_tau is n - k (zero if n <= k,
  /// in which case every constraint is trivially satisfied).
  FlushCoverage(const BlockMap& blocks, int k);

  /// Advance to time t with request p. Every FlushSet whose cached g must
  /// stay consistent has to be passed here (it is updated *before* the
  /// last-request state changes). p's block gets a fresh stamp.
  void advance(PageId p, Time t, std::span<FlushSet* const> sets);
  void advance(PageId p, Time t) { advance(p, t, {}); }

  [[nodiscard]] const BlockMap& blocks() const noexcept { return *blocks_; }
  [[nodiscard]] int n() const noexcept { return blocks_->n_pages(); }
  [[nodiscard]] int k() const noexcept { return k_; }
  /// The cap n - k (>= 0).
  [[nodiscard]] int cap() const noexcept { return cap_; }
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// r(p, tau) for the current tau.
  [[nodiscard]] Time last_request(PageId p) const {
    return last_[static_cast<std::size_t>(p)];
  }

  /// |{ p in B : r(p, tau) < m }| via binary search in the block's sorted
  /// last-request list.
  [[nodiscard]] int count_below(BlockId b, Time m) const;

  /// Distinct alive flush times of block b at the current tau:
  /// { r(p, tau) + 1 : p in B } (deduplicated, ascending). Alive flushes
  /// are the only ones a competitive algorithm ever needs (Section 3.3).
  [[nodiscard]] std::vector<Time> alive_times(BlockId b) const;
  /// The same into `out` (cleared first), for callers that reuse a buffer.
  void alive_times(BlockId b, std::vector<Time>& out) const;

  /// r(p, tau) of block b's pages, ascending (kNeverRequested first): the
  /// list count_below searches, for callers that walk it in step.
  [[nodiscard]] std::span<const Time> sorted_last(BlockId b) const {
    return sorted_last_[static_cast<std::size_t>(b)];
  }

  /// Block b's stamp: equal stamps mean equal sorted_last(b).
  [[nodiscard]] std::uint64_t stamp(BlockId b) const {
    return stamps_[static_cast<std::size_t>(b)];
  }

 private:
  friend class FlushSet;
  const BlockMap* blocks_;
  int k_;
  int cap_;
  Time now_ = 0;
  std::vector<Time> last_;                       // r(p, now) per page
  std::vector<std::vector<Time>> sorted_last_;   // per block, ascending
  std::vector<std::uint64_t> stamps_;            // per block
};

/// A set of flushes S (per-block max flush time) with cached g_tau(S).
class FlushSet {
 public:
  /// The paper's initialization S = { (B, 0) : B }: every block flushed at
  /// time 0, so all never-requested pages are missing and g = n.
  explicit FlushSet(const FlushCoverage& cov);

  /// An empty flush set (m_B = -1 for all B, g = 0). Mostly for tests.
  static FlushSet empty(const FlushCoverage& cov);

  [[nodiscard]] Time max_flush(BlockId b) const {
    return max_flush_[static_cast<std::size_t>(b)];
  }

  /// g_tau(S) / f_tau(S) at the coverage's current tau.
  [[nodiscard]] int g() const noexcept { return g_; }
  [[nodiscard]] int f() const noexcept { return g_ < cov_->cap() ? g_ : cov_->cap(); }

  /// Marginals of adding flush (b, t) at the current tau.
  [[nodiscard]] int g_marginal(BlockId b, Time t) const;
  [[nodiscard]] int f_marginal(BlockId b, Time t) const;

  /// Is page p missing at the current tau according to this set?
  [[nodiscard]] bool missing(PageId p) const {
    return cov_->last_request(p) < max_flush(cov_->blocks().block_of(p));
  }

  /// Add flush (b, t); t must be <= the coverage's current tau. Returns the
  /// g-marginal that was realized.
  int add_flush(BlockId b, Time t);

  /// Recompute g from scratch (O(n_blocks log beta)); used to restore cache
  /// coherence for copies and by tests.
  void recompute();

  [[nodiscard]] const FlushCoverage& coverage() const noexcept { return *cov_; }

 private:
  friend class FlushCoverage;
  FlushSet(const FlushCoverage& cov, Time init_flush_time);
  const FlushCoverage* cov_;
  std::vector<Time> max_flush_;
  int g_ = 0;
};

}  // namespace bac
