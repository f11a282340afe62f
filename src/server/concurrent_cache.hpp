// Thread-safe sharded block-aware cache front-end with a get(page) API.
//
// Sharding is by *block*: every page of a block is owned by exactly one
// shard (splitmix64 hash of the block id, mod the shard count), so
// per-shard CostMeters never split a block's batched flush or fetch
// across meters — the paper's cost model stays exact under concurrency.
// The global capacity k is divided near-evenly across shards (shard 0
// upward take the remainder pages, and every shard keeps capacity >=
// beta, enforced at construction). Each shard runs an independent clone
// of a prototype OnlinePolicy behind its own mutex; requests to distinct
// shards proceed fully in parallel.
//
// Determinism: a shard's cost depends only on the order of the requests
// *it* serves (shards share no mutable state). Any dispatch that
// preserves per-shard request order — e.g. serve_partitioned() in
// dispatch.hpp, where one worker owns each shard — therefore produces
// bit-identical total block-aware cost at every thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/instance.hpp"
#include "core/policy.hpp"
#include "obs/metrics.hpp"
#include "server/shard.hpp"

namespace bac::server {

// Thread-safety: the coordinator owns no lock of its own — every mutable
// member lives in a CacheShard behind that shard's GUARDED_BY-annotated
// bac::Mutex (shard.hpp); everything held here (headers, shard array,
// the hash parameters) is immutable after construction, which is why
// const methods are safe to call from any thread with no annotation.
class ConcurrentCache {
 public:
  /// `context` supplies the block structure and the *total* capacity k;
  /// its requests (if any) are ignored. The prototype policy must be
  /// cloneable and online — requires_future() policies cannot serve a
  /// live request stream. Shard i's policy clone is seeded with seed + i,
  /// so runs are reproducible for any dispatch that preserves per-shard
  /// order. Throws std::invalid_argument when n_shards < 1, the prototype
  /// is offline or not cloneable, or k / n_shards < beta (use
  /// max_shards() to size the shard count).
  ConcurrentCache(const Instance& context, const OnlinePolicy& prototype,
                  int n_shards, std::uint64_t seed = 1);

  // Shards hold pointers into the coordinator-owned headers.
  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  /// Serve one request; true on hit. Thread-safe for any mix of pages.
  /// Throws std::out_of_range for pages outside the context's universe.
  /// Stays, though the tools serve batches: it is the per-request
  /// reference the tests hold get_batch to.
  bool get(PageId p);

  /// Serve `n` requests; returns the hit count. Every page is validated
  /// before any is served: a batch holding a page outside the universe
  /// throws std::out_of_range and serves nothing. One batch is served
  /// grouped by shard, in shard-index order: each shard's requests keep
  /// their batch order and take one lock acquisition
  /// (CacheShard::get_batch), so a batch pays one lock per shard it hits
  /// instead of one per request. Per-shard request order — and therefore
  /// every cost and counter — is identical to n get() calls at any
  /// thread count. If a shard's policy audit throws, the shards before
  /// it in index order have been served and the rest have not.
  long long get_batch(const PageId* ps, int n);

  [[nodiscard]] int n_shards() const noexcept {
    return static_cast<int>(shards_.size());
  }
  /// Shard owning page p (every page of p's block maps to the same one).
  [[nodiscard]] int shard_of(PageId p) const;
  /// The block structure and total k the cache was built with.
  [[nodiscard]] const Instance& context() const noexcept { return context_; }

  /// The sum of every shard's snapshot (ServerStats::operator+=), locking
  /// each shard in turn (shard index order, so repeated calls on a
  /// quiesced cache are deterministic); capacity sums to the total k. Not
  /// a consistent point-in-time snapshot while traffic is in flight.
  [[nodiscard]] ServerStats stats() const;
  /// One shard's snapshot. Stays for the tests, which compare shards one
  /// by one where stats() would hide a difference in the sum.
  [[nodiscard]] ShardSnapshot shard_snapshot(int shard) const;

  /// Fold the current stats() into `registry` under `server_*` names:
  /// event counters (requests/hits/misses, costs, block events, pages —
  /// all bit-identical across thread counts for shard-order-preserving
  /// dispatch) plus the merged latency/lock-wait histograms.
  void export_metrics(obs::MetricRegistry& registry) const;

  /// Largest shard count that keeps every shard's capacity >= beta
  /// (i.e. floor(k / beta), at least 1).
  [[nodiscard]] static int max_shards(const Instance& context);

 private:
  /// Throws std::out_of_range for a page outside the context's universe.
  void check_page(PageId p) const;

  Instance context_;  ///< full structure, k = total capacity
  /// Shared shard headers: at most two distinct shard capacities exist
  /// (floor(k/S) and floor(k/S)+1), so two headers serve every shard and
  /// no per-shard BlockMap copies are made; header_hi_ stays null when
  /// k % S == 0 (a header is an O(n_pages) BlockMap copy).
  std::unique_ptr<const Instance> header_lo_;
  std::unique_ptr<const Instance> header_hi_;
  std::vector<std::int32_t> page_shard_;  ///< page -> owning shard
  std::vector<std::unique_ptr<CacheShard>> shards_;
};

}  // namespace bac::server
