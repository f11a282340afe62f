// Batched block-aware cost accounting.
//
// The defining feature of the model (Section 2): touching any non-empty
// subset of a block within one time step costs the block's cost once.
// The meter tracks both cost models simultaneously for every run, so a
// single simulation reports the policy's cost under eviction *and* fetching
// semantics, plus classic per-page (unbatched) costs for the trivial-baseline
// comparisons of Section 1.1.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"

namespace bac {

/// Everything a run is charged and counted: requests, hits and misses
/// (counted by the step kernel, core/step_kernel.hpp) and the meter's eight
/// totals. RunResult, ReplayResult and server::ServerStats derive from it,
/// so copying a run's counters is one assignment to counters(), summing
/// shards is one +=, and comparing two runs is one ==.
struct CostCounters {
  long long requests = 0;
  long long hits = 0;    ///< requested page already cached
  long long misses = 0;  ///< requested page not cached
  Cost eviction_cost = 0;  ///< batched: each block once per step
  Cost fetch_cost = 0;
  Cost classic_eviction_cost = 0;  ///< unbatched: every page pays its block
  Cost classic_fetch_cost = 0;
  long long evict_block_events = 0;  ///< (block, step) eviction charges
  long long fetch_block_events = 0;
  long long evicted_pages = 0;
  long long fetched_pages = 0;

  [[nodiscard]] Cost total_cost() const noexcept {
    return eviction_cost + fetch_cost;
  }
  /// This record as its counters alone, for derived types: compare with
  /// `a.counters() == b.counters()`, copy with `r.counters() = c`.
  [[nodiscard]] const CostCounters& counters() const noexcept { return *this; }
  [[nodiscard]] CostCounters& counters() noexcept { return *this; }

  CostCounters& operator+=(const CostCounters& o) noexcept {
    requests += o.requests;
    hits += o.hits;
    misses += o.misses;
    eviction_cost += o.eviction_cost;
    fetch_cost += o.fetch_cost;
    classic_eviction_cost += o.classic_eviction_cost;
    classic_fetch_cost += o.classic_fetch_cost;
    evict_block_events += o.evict_block_events;
    fetch_block_events += o.fetch_block_events;
    evicted_pages += o.evicted_pages;
    fetched_pages += o.fetched_pages;
    return *this;
  }
  bool operator==(const CostCounters&) const = default;
};

/// Every field by name, costs at %.17g (diff messages, gtest output).
std::ostream& operator<<(std::ostream& os, const CostCounters& c);

class CostMeter {
 public:
  explicit CostMeter(const BlockMap& blocks)
      : blocks_(&blocks),
        evict_stamp_(static_cast<std::size_t>(blocks.n_blocks()), -1),
        fetch_stamp_(static_cast<std::size_t>(blocks.n_blocks()), -1) {}

  /// Advance to time step t (strictly increasing); resets per-step batching.
  void begin_step(Time t) { now_ = t; }

  void on_evict(PageId p) {
    const BlockId b = blocks_->block_of(p);
    totals_.classic_eviction_cost += blocks_->cost(b);
    ++totals_.evicted_pages;
    auto& stamp = evict_stamp_[static_cast<std::size_t>(b)];
    if (stamp != now_) {
      stamp = now_;
      totals_.eviction_cost += blocks_->cost(b);
      ++totals_.evict_block_events;
    }
  }

  void on_fetch(PageId p) {
    const BlockId b = blocks_->block_of(p);
    totals_.classic_fetch_cost += blocks_->cost(b);
    ++totals_.fetched_pages;
    auto& stamp = fetch_stamp_[static_cast<std::size_t>(b)];
    if (stamp != now_) {
      stamp = now_;
      totals_.fetch_cost += blocks_->cost(b);
      ++totals_.fetch_block_events;
    }
  }

  /// The eight totals below as one record (requests, hits and misses are
  /// the step kernel's and stay 0 here).
  [[nodiscard]] const CostCounters& totals() const noexcept { return totals_; }

  /// Batched (block-aware) totals.
  [[nodiscard]] Cost eviction_cost() const noexcept {
    return totals_.eviction_cost;
  }
  [[nodiscard]] Cost fetch_cost() const noexcept { return totals_.fetch_cost; }
  /// Unbatched per-page totals (classic weighted paging accounting).
  [[nodiscard]] Cost classic_eviction_cost() const noexcept {
    return totals_.classic_eviction_cost;
  }
  [[nodiscard]] Cost classic_fetch_cost() const noexcept {
    return totals_.classic_fetch_cost;
  }
  [[nodiscard]] long long evict_block_events() const noexcept {
    return totals_.evict_block_events;
  }
  [[nodiscard]] long long fetch_block_events() const noexcept {
    return totals_.fetch_block_events;
  }
  [[nodiscard]] long long evicted_pages() const noexcept {
    return totals_.evicted_pages;
  }
  [[nodiscard]] long long fetched_pages() const noexcept {
    return totals_.fetched_pages;
  }

 private:
  const BlockMap* blocks_;
  Time now_ = -1;
  std::vector<Time> evict_stamp_;  // last step each block was charged
  std::vector<Time> fetch_stamp_;
  CostCounters totals_;
};

}  // namespace bac
