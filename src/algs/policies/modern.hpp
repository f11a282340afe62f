// Modern eviction policies, built on the composable flat primitives in
// core/eviction_index.hpp (SegmentedFifo, GhostTable, PageMeta).
//
// These are the heuristics production caches actually run, landed here so
// the paper-vs-baseline curves (Coester et al., SPAA 2022) meet something
// stronger than LRU/LFU:
//
//  - S3FIFO [Yang et al., SOSP'23]: a small probationary FIFO in front of
//    a main FIFO plus a ghost list of recently evicted ids. One-hit
//    wonders die cheaply in the small queue; pages that return via the
//    ghost go straight to main. Knob: the small queue's share of k.
//  - SIEVE [Zhang et al., NSDI'24]: a single FIFO with a lazy hand that
//    sweeps from the oldest entry toward the newest, clearing visited
//    bits and evicting the first unvisited page. Cheaper than LRU (hits
//    only set a bit) yet scan-resistant.
//  - ARC [Megiddo & Modha, FAST'03]: two LRU lists (T1 recency, T2
//    frequency) plus two ghost lists (B1, B2) steering an adaptive
//    target p for T1's share of the cache. Follows the paper's Figure 4
//    case analysis exactly.
//
// BlockS3Fifo / BlockSieve are block-aware variants for the paper's cost
// model: they track whole blocks through the same structures and
// batch-evict via CacheOps::flush_block, so an eviction decision pays one
// block eviction no matter how many pages it frees (mirroring BlockLRU's
// batching). Like BlockLRU they detach/protect the requested block while
// serving. Every caller enforces beta <= k, so the requested block alone
// always fits and some other resident block is there to flush.
//
// All five are deterministic, clone()-safe (value members only), allocate
// nothing per request after reset(), and keep structural counters (ghost
// hits, hand sweeps, ARC target adjustments, block flushes) exported
// through OnlinePolicy::export_metrics for `bacsim --metrics`. Frozen
// std::list/std::set twins live in verify/reference_policies.cpp and the
// policy_equivalence oracle fuzzes the pairs for bit-identical runs.
#pragma once

#include <cstdint>

#include "core/eviction_index.hpp"
#include "core/policy.hpp"

namespace bac {

/// S3-FIFO over pages: small/main FIFO queues plus a ghost list.
class S3FifoPolicy final : public OnlinePolicy {
 public:
  static constexpr double kDefaultSmallFrac = 0.1;
  explicit S3FifoPolicy(double small_frac = kDefaultSmallFrac);
  [[nodiscard]] std::string name() const override;
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<S3FifoPolicy>(*this);
  }
  void export_metrics(obs::MetricRegistry& registry) const override;

  [[nodiscard]] double small_frac() const noexcept { return small_frac_; }
  /// Pages the small queue is allowed before eviction prefers it (the
  /// tests' view of how small_frac is rounded).
  [[nodiscard]] int small_target() const noexcept { return small_target_; }

 private:
  enum Segment : int { kSmall = 0, kMain = 1 };
  void evict_one(CacheOps& cache);

  double small_frac_;
  int small_target_ = 1;
  SegmentedFifo queues_;          // cached pages, small/main arrival order
  GhostTable ghost_;              // last k ids evicted from the small queue
  PageMeta<std::uint8_t> freq_;   // per page, capped at 3
  long long ghost_hits_ = 0;
  long long small_promotions_ = 0;
  long long main_reinserts_ = 0;
};

/// SIEVE over pages: one FIFO, one visited bit, one lazy hand.
class SievePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "SIEVE"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<SievePolicy>(*this);
  }
  void export_metrics(obs::MetricRegistry& registry) const override;

 private:
  IntrusiveOrderList by_arrival_;  // front = oldest
  PageMeta<std::uint8_t> visited_;
  std::int32_t hand_ = IntrusiveOrderList::kNone;
  long long hand_sweeps_ = 0;  // hand advances (visited bits cleared)
};

/// ARC over pages: T1/T2 recency/frequency LRU lists, B1/B2 ghosts, and
/// the adaptive target p for T1's share of the cache.
class ArcPolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "ARC"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<ArcPolicy>(*this);
  }
  void export_metrics(obs::MetricRegistry& registry) const override;

  /// Current adaptive target for |T1| (test/introspection hook).
  [[nodiscard]] int target_p() const noexcept { return p_; }

 private:
  enum List : int { kT1 = 0, kT2 = 1 };
  void replace(bool requested_in_b2, CacheOps& cache);

  SegmentedFifo t_;  // T1/T2; push_back = MRU insert, front = LRU victim
  GhostTable b1_;    // ghosts of pages evicted from T1
  GhostTable b2_;    // ghosts of pages evicted from T2
  int c_ = 0;
  int p_ = 0;
  long long ghost_hits_ = 0;
  long long p_adjustments_ = 0;
};

/// S3-FIFO over blocks: the queues and ghost track BlockIds and eviction
/// batch-flushes the whole victim block.
class BlockS3FifoPolicy final : public OnlinePolicy {
 public:
  explicit BlockS3FifoPolicy(
      double small_frac = S3FifoPolicy::kDefaultSmallFrac);
  [[nodiscard]] std::string name() const override;
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<BlockS3FifoPolicy>(*this);
  }
  void export_metrics(obs::MetricRegistry& registry) const override;

  [[nodiscard]] double small_frac() const noexcept { return small_frac_; }

 private:
  enum Segment : int { kSmall = 0, kMain = 1 };
  void evict_one_block(CacheOps& cache);

  double small_frac_;
  int small_target_ = 1;          // in blocks
  SegmentedFifo queues_;          // resident blocks, small/main order
  GhostTable ghost_;              // recently flushed blocks
  PageMeta<std::uint8_t> freq_;   // per block, capped at 3
  long long ghost_hits_ = 0;
  long long small_promotions_ = 0;
  long long main_reinserts_ = 0;
  long long block_flushes_ = 0;
};

/// SIEVE over blocks: the FIFO and visited bits track BlockIds and the
/// hand's victim is batch-flushed.
class BlockSievePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "BlockSIEVE"; }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<BlockSievePolicy>(*this);
  }
  void export_metrics(obs::MetricRegistry& registry) const override;

 private:
  IntrusiveOrderList by_arrival_;  // resident blocks, front = oldest
  PageMeta<std::uint8_t> visited_;
  std::int32_t hand_ = IntrusiveOrderList::kNone;
  long long hand_sweeps_ = 0;
  long long block_flushes_ = 0;
};

}  // namespace bac
