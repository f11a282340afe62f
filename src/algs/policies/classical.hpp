// Classical (block-oblivious) caching policies.
//
// These are the paper's trivial comparators (Section 1.1): any r-competitive
// classical policy is at most beta*r-competitive for block-aware caching,
// because it never batches evictions or fetches within a block. Running them
// through the block-aware cost meter quantifies exactly how much the
// block-aware algorithms gain.
//
//  - LRU / FIFO / LFU: the textbook deterministic policies (k-competitive /
//    k-competitive / not competitive, resp., for classic unweighted paging).
//  - Marking [FKL+91]: O(log k)-competitive randomized unweighted paging.
//  - Belady MIN: the offline optimum for classic unweighted paging
//    (farthest-in-future eviction); reads the future via reset().
//  - GreedyDual (a.k.a. Landlord): k-competitive weighted caching; pages
//    weighted by their block's cost.
//  - BlockLRU: a natural block-aware heuristic — LRU over blocks, evicting
//    whole blocks (batched), optionally prefetching whole blocks on a miss.
//    Not from the paper; included as the "what a practitioner would try"
//    baseline.
// All deterministic policies here keep their eviction order in the flat
// primitives from core/eviction_index.hpp (an intrusive list for recency
// orders, a lazy 4-ary heap for priority orders) instead of std::set —
// same victims, same tie-breaking (by page id via the (key, id) pair
// comparator), no allocation per request, and storage reused across
// reset() calls. The verify subsystem keeps frozen std::set twins
// (verify/reference_policies.hpp) and fuzzes the two against each other.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/eviction_index.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace bac {

class LruPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "LRU"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<LruPolicy>(*this);
  }

 private:
  // Insertion order == last-use order (timestamps strictly increase), so
  // front() is the std::set<std::pair<Time, PageId>>::begin victim.
  IntrusiveOrderList by_recency_;  // cached pages only
};

class FifoPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "FIFO"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<FifoPolicy>(*this);
  }

 private:
  IntrusiveOrderList by_arrival_;  // insertion order == arrival order
};

class LfuPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "LFU"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<LfuPolicy>(*this);
  }

 private:
  std::vector<long long> freq_;
  LazyMinHeap<long long> by_freq_;  // min (freq, page), ties by page id
};

/// Randomized Marking [FKL+91]: phase-based, evicts a uniformly random
/// unmarked cached page.
class MarkingPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Marking"; }
  void reset(const Instance& inst) override;
  void seed(std::uint64_t s) override { rng_ = Xoshiro256pp(s); }
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] bool randomized() const override { return true; }
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<MarkingPolicy>(*this);
  }

 private:
  std::vector<char> marked_;
  std::vector<PageId> unmarked_cached_;  // compact list for O(1) sampling
  std::vector<std::int32_t> unmarked_pos_;
  Xoshiro256pp rng_{1};

  void set_unmarked(PageId p, bool unmarked);
};

/// Belady's MIN (offline): evict the cached page whose next request is
/// farthest in the future. Optimal for classic unweighted paging; a strong
/// (but block-oblivious) offline baseline here.
class BeladyPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Belady"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] bool requires_future() const override { return true; }
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<BeladyPolicy>(*this);
  }

 private:
  std::vector<std::vector<Time>> occurrences_;  // per page, ascending
  std::vector<std::size_t> cursor_;             // next occurrence index
  // Max-heap on (next use, page): pop() is std::set's rbegin() victim
  // (farthest next use, largest page id among never-again ties).
  LazyMinHeap<Time, std::greater<std::pair<Time, PageId>>> by_next_;

  [[nodiscard]] Time next_use(PageId p) const;
};

/// GreedyDual / Landlord: k-competitive for weighted caching. Credits are
/// maintained with a global offset so each miss costs O(log k).
class GreedyDualPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "GreedyDual"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<GreedyDualPolicy>(*this);
  }

 private:
  double offset_ = 0;
  std::vector<double> page_cost_;  // block cost per page, precomputed
  std::vector<double> credit_;  // absolute credit; effective = credit-offset
  LazyMinHeap<double> by_credit_;  // min absolute credit, ties by page id
};

/// LRU over whole blocks: on overflow, flush the least-recently-used block
/// (batched eviction). With `prefetch` true, a miss fetches the whole block
/// (batched fetch) and then flushes LRU blocks until the cache fits.
class BlockLruPolicy final : public OnlinePolicy {
 public:
  explicit BlockLruPolicy(bool prefetch) : prefetch_(prefetch) {}
  [[nodiscard]] std::string name() const override {
    return prefetch_ ? "BlockLRU+Prefetch" : "BlockLRU";
  }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<BlockLruPolicy>(*this);
  }

 private:
  bool prefetch_;
  IntrusiveOrderList by_recency_;  // blocks with cached pages, LRU first
};

}  // namespace bac
