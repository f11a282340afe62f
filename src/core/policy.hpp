// Policy interfaces and the cache-operations facade handed to policies.
//
// A policy serves each request by mutating the cache through CacheOps;
// the simulator owns the actual cache state and cost meter, audits
// feasibility after every step, and reports costs under both cost models.
// Offline algorithms receive the full Instance in reset() and may read the
// future; online algorithms must only use what they have seen (the tests
// include a prefix-consistency check for the online ones).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/cache_set.hpp"
#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/types.hpp"

namespace bac::obs {
class MetricRegistry;
}  // namespace bac::obs

namespace bac {

/// Mutating facade over the simulator's cache; all costs flow through here.
class CacheOps {
 public:
  CacheOps(const BlockMap& blocks, CacheSet& cache, CostMeter& meter, int k)
      : blocks_(&blocks), cache_(&cache), meter_(&meter), k_(k) {}

  [[nodiscard]] bool contains(PageId p) const noexcept {
    return cache_->contains(p);
  }
  [[nodiscard]] int size() const noexcept { return cache_->size(); }
  [[nodiscard]] int capacity() const noexcept { return k_; }
  [[nodiscard]] const std::vector<PageId>& pages() const noexcept {
    return cache_->pages();
  }
  [[nodiscard]] const BlockMap& blocks() const noexcept { return *blocks_; }

  /// Insert p, charging the fetch side of its block (no-op if present).
  void fetch(PageId p) {
    if (cache_->insert(p)) meter_->on_fetch(p);
  }

  /// Remove p, charging the eviction side of its block (no-op if absent).
  void evict(PageId p) {
    if (cache_->erase(p)) meter_->on_evict(p);
  }

  /// Evict every cached page of block b except `keep` (pass -1 to evict
  /// all). Returns the number of pages evicted. This is the paper's "flush".
  int flush_block(BlockId b, PageId keep = -1) {
    int evicted = 0;
    for (PageId p : blocks_->pages_in(b)) {
      if (p == keep) continue;
      if (cache_->contains(p)) {
        evict(p);
        ++evicted;
      }
    }
    return evicted;
  }

 private:
  const BlockMap* blocks_;
  CacheSet* cache_;
  CostMeter* meter_;
  int k_;
};

class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before a run. Offline policies may precompute from the
  /// full instance here.
  virtual void reset(const Instance& inst) = 0;

  /// Reseed internal randomness (no-op for deterministic policies).
  virtual void seed(std::uint64_t /*seed*/) {}

  /// Serve the request to page p at time t. Postconditions audited by the
  /// simulator: p is cached and size() <= capacity().
  virtual void on_request(Time t, PageId p, CacheOps& cache) = 0;

  /// True for policies whose behaviour depends on seed() (Monte-Carlo
  /// trials are only meaningful for these).
  [[nodiscard]] virtual bool randomized() const { return false; }

  /// True for offline policies that read the future out of reset()'s
  /// Instance; the simulator refuses to run them over non-materialized
  /// streaming sources, whose context carries no request vector.
  [[nodiscard]] virtual bool requires_future() const { return false; }

  /// Fresh copy for parallel Monte-Carlo trials and the sharded server,
  /// or nullptr when the policy is not cloneable (simulate_mc then falls
  /// back to serial trials; the server refuses to construct). Clones are
  /// only valid after a reset() — copied internal pointers may still
  /// reference the original's state until then.
  ///
  /// Concurrency contract: after reset() (and seed(), if randomized),
  /// a clone must share no mutable state with its prototype or with
  /// sibling clones, so distinct clones may serve requests from distinct
  /// threads concurrently without synchronization. Shared immutable state
  /// (e.g. the Instance passed to reset()) is fine.
  [[nodiscard]] virtual std::unique_ptr<OnlinePolicy> clone() const {
    return nullptr;
  }

  /// Fold the policy's structural counters (ghost hits, hand sweeps, ARC
  /// target adjustments, block batch-evictions, ...) into a metric
  /// registry. Counters must count events of the policy's own run only —
  /// the bacobs determinism contract — so per-shard clones can be summed
  /// and stay bit-identical across thread counts. Default: exports
  /// nothing (most classical policies have no structural counters).
  virtual void export_metrics(obs::MetricRegistry& /*registry*/) const {}
};

}  // namespace bac
