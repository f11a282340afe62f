// Concurrency suite for the sharded data-plane (src/server): sharding
// invariants, single-shard equivalence with the simulator, thread-count
// invariance of the total block-aware cost under shard-partitioned
// dispatch, and a contended multi-thread stress run (the CI TSan job
// replays this suite via the `concurrency` label).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include <memory>
#include <set>
#include <vector>

#include "algs/policies/classical.hpp"
#include "algs/det_online.hpp"
#include "core/request_source.hpp"
#include "core/simulator.hpp"
#include "server/concurrent_cache.hpp"
#include "server/dispatch.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace bac {
namespace {

using server::CacheShard;
using server::ConcurrentCache;
using server::ServerStats;
using server::ShardSnapshot;

/// Small zipf workload: 256 pages in blocks of 4, k = 32, 20k requests.
struct Workload {
  Instance inst;
  std::vector<PageId> requests;
};

/// A zipf0.9 trace over contiguous blocks of `beta` pages.
Instance zipf_trace_of(int n, int beta, int k, long long T,
                       std::uint64_t seed) {
  return materialize(
      *SyntheticSource::zipf(Instance{BlockMap::contiguous(n, beta), {}, k},
                             T, 0.9, Xoshiro256pp(seed)));
}

Workload zipf_workload(long long T = 20000) {
  Instance inst = zipf_trace_of(256, 4, 32, T, 7);
  std::vector<PageId> requests = inst.requests;
  return {std::move(inst), std::move(requests)};
}

/// Minimal correct online policy whose clone() stays nullptr.
class NonCloneablePolicy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "NonCloneable"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId p, CacheOps& cache) override {
    cache.fetch(p);
    while (cache.size() > cache.capacity()) {
      for (PageId q : cache.pages()) {
        if (q != p) {
          cache.evict(q);
          break;
        }
      }
    }
  }
};

TEST(ConcurrentCache, BlocksNeverStraddleShards) {
  const Workload w = zipf_workload(1);
  ConcurrentCache cache(w.inst, LruPolicy(), 5);
  const BlockMap& blocks = w.inst.blocks;
  for (BlockId b = 0; b < blocks.n_blocks(); ++b) {
    std::set<int> owners;
    for (PageId p : blocks.pages_in(b)) owners.insert(cache.shard_of(p));
    EXPECT_EQ(owners.size(), 1u) << "block " << b << " straddles shards";
  }
}

TEST(ConcurrentCache, CapacitiesSumToTotalAndRespectBeta) {
  const Workload w = zipf_workload(1);
  for (const int shards : {1, 2, 3, 7, 8}) {
    ConcurrentCache cache(w.inst, LruPolicy(), shards);
    int total = 0;
    for (int s = 0; s < cache.n_shards(); ++s) {
      const ShardSnapshot snap = cache.shard_snapshot(s);
      EXPECT_GE(snap.capacity, w.inst.blocks.beta());
      total += snap.capacity;
    }
    EXPECT_EQ(total, w.inst.k) << "shards=" << shards;
    EXPECT_EQ(cache.stats().capacity, w.inst.k) << "shards=" << shards;
  }
}

TEST(ConcurrentCache, MaxShardsKeepsPerShardCapacityFeasible) {
  const Workload w = zipf_workload(1);
  const int max = ConcurrentCache::max_shards(w.inst);
  EXPECT_EQ(max, w.inst.k / w.inst.blocks.beta());
  ConcurrentCache ok(w.inst, LruPolicy(), max);  // must construct
  EXPECT_EQ(ok.n_shards(), max);
  EXPECT_THROW(ConcurrentCache(w.inst, LruPolicy(), max + 1),
               std::invalid_argument);
}

TEST(ConcurrentCache, RejectsBadConfigs) {
  const Workload w = zipf_workload(1);
  EXPECT_THROW(ConcurrentCache(w.inst, LruPolicy(), 0),
               std::invalid_argument);
  EXPECT_THROW(ConcurrentCache(w.inst, BeladyPolicy(), 1),
               std::invalid_argument)
      << "offline policies cannot serve a live stream";
  EXPECT_THROW(ConcurrentCache(w.inst, NonCloneablePolicy(), 2),
               std::invalid_argument);
}

TEST(ConcurrentCache, RejectsOutOfRangePages) {
  const Workload w = zipf_workload(1);
  ConcurrentCache cache(w.inst, LruPolicy(), 2);
  EXPECT_THROW(cache.get(-1), std::out_of_range);
  EXPECT_THROW(cache.get(w.inst.n_pages()), std::out_of_range);
  EXPECT_THROW((void)cache.shard_of(w.inst.n_pages()), std::out_of_range);
}

// With a single shard the data-plane is the simulator's serve loop behind
// a mutex: same policy, same order, same meter — costs must match exactly.
TEST(ConcurrentCache, SingleShardMatchesSimulator) {
  const Workload w = zipf_workload();
  for (const auto& make : {+[]() -> std::unique_ptr<OnlinePolicy> {
                             return std::make_unique<LruPolicy>();
                           },
                           +[]() -> std::unique_ptr<OnlinePolicy> {
                             return std::make_unique<DetOnlineBlockAware>();
                           },
                           +[]() -> std::unique_ptr<OnlinePolicy> {
                             return std::make_unique<BlockLruPolicy>(false);
                           }}) {
    const auto policy = make();
    SimOptions options;
    options.seed = 1;
    const RunResult expected = simulate(w.inst, *policy, options);

    ConcurrentCache cache(w.inst, *policy, 1, 1);
    for (const PageId p : w.requests) cache.get(p);
    const ServerStats stats = cache.stats();
    EXPECT_EQ(stats.counters(), expected.counters()) << policy->name();
    EXPECT_EQ(stats.cached_pages, expected.cached_pages) << policy->name();
  }
}

// The determinism contract of the data-plane: shard-partitioned dispatch
// produces bit-identical totals at every thread count.
TEST(ConcurrentCache, PartitionedDispatchIsThreadCountInvariant) {
  const Workload w = zipf_workload();
  const int shards = 8;
  ServerStats baseline;
  bool have_baseline = false;
  for (const int threads : {1, 2, 5, 8}) {
    ConcurrentCache cache(w.inst, LruPolicy(), shards, 42);
    server::serve_partitioned(cache, w.requests, threads);
    const ServerStats stats = cache.stats();
    EXPECT_EQ(stats.requests,
              static_cast<long long>(w.requests.size()));
    if (!have_baseline) {
      baseline = stats;
      have_baseline = true;
      continue;
    }
    EXPECT_EQ(stats.counters(), baseline.counters()) << "threads=" << threads;
    EXPECT_EQ(stats.cached_pages, baseline.cached_pages)
        << "threads=" << threads;
  }
}

// Contended stress: chunked dispatch hits every shard from every worker.
// The interleaving is nondeterministic, but conservation laws are not:
// every request is served exactly once, capacity is never exceeded, and
// the aggregate equals the sum of the shard snapshots. Under the CI TSan
// build this doubles as the data-race check on the shard locking.
TEST(ConcurrentCache, ChunkedStressKeepsInvariants) {
  const Workload w = zipf_workload(30000);
  ConcurrentCache cache(w.inst, LruPolicy(), 4, 11);
  server::serve_chunked(cache, w.requests, 8);

  long long requests = 0, hits = 0;
  Cost evict = 0, fetch = 0;
  for (int s = 0; s < cache.n_shards(); ++s) {
    const ShardSnapshot snap = cache.shard_snapshot(s);
    EXPECT_LE(snap.cached_pages, snap.capacity);
    EXPECT_EQ(snap.requests, snap.hits + snap.misses);
    requests += snap.requests;
    hits += snap.hits;
    evict += snap.eviction_cost;
    fetch += snap.fetch_cost;
  }
  EXPECT_EQ(requests, static_cast<long long>(w.requests.size()));

  const ServerStats stats = cache.stats();
  EXPECT_EQ(stats.requests, requests);
  EXPECT_EQ(stats.hits, hits);
  EXPECT_EQ(stats.eviction_cost, evict);
  EXPECT_EQ(stats.fetch_cost, fetch);
  EXPECT_EQ(stats.total_cost(), evict + fetch);
}

// A batch is validated whole before any of it is served: after bucketing
// by shard, "the requests before the bad page" would name no definite
// set, so a rejected batch must serve nothing at all.
TEST(ConcurrentCache, GetBatchRejectsOutOfRangeBeforeServingAny) {
  const Workload w = zipf_workload(64);
  ConcurrentCache cache(w.inst, LruPolicy(), 4);
  std::vector<PageId> batch(w.requests.begin(), w.requests.end());
  std::set<int> shards;
  for (const PageId p : batch) shards.insert(cache.shard_of(p));
  ASSERT_GT(shards.size(), 1u) << "the batch must span several shards";
  batch.push_back(w.inst.n_pages());
  EXPECT_THROW(cache.get_batch(batch.data(), static_cast<int>(batch.size())),
               std::out_of_range);
  EXPECT_EQ(cache.stats().requests, 0);
  batch.back() = -1;
  EXPECT_THROW(cache.get_batch(batch.data(), static_cast<int>(batch.size())),
               std::out_of_range);
  EXPECT_EQ(cache.stats().requests, 0);
  // The rejected batches leave the cache (and this thread's routing
  // scratch) ready to serve.
  batch.pop_back();
  cache.get_batch(batch.data(), static_cast<int>(batch.size()));
  EXPECT_EQ(cache.stats().requests, static_cast<long long>(batch.size()));
}

// get_batch regroups each batch by shard; every shard still sees its own
// requests in trace order, so each shard's counters, costs and contents
// must equal those of the same trace fed through get() one request at a
// time — for every policy kind, shard count and batch size.
TEST(ConcurrentCache, GetBatchMatchesPerRequestGet) {
  const Instance inst = zipf_trace_of(1024, 4, 128, 6000, 21);
  const std::vector<PageId>& requests = inst.requests;
  const int whole = static_cast<int>(requests.size());
  const LruPolicy lru;
  const MarkingPolicy marking;
  const DetOnlineBlockAware det;
  const BlockLruPolicy block_lru(false);
  const OnlinePolicy* const policies[] = {&lru, &marking, &det, &block_lru};
  for (const OnlinePolicy* policy : policies) {
    for (const int shards : {1, 3, 8, ConcurrentCache::max_shards(inst)}) {
      ConcurrentCache single(inst, *policy, shards, 5);
      for (const PageId p : requests) single.get(p);
      for (const int batch : {1, 7, 512, whole}) {
        ConcurrentCache batched(inst, *policy, shards, 5);
        long long hits = 0;
        for (int i = 0; i < whole; i += batch)
          hits += batched.get_batch(requests.data() + i,
                                    std::min(batch, whole - i));
        EXPECT_EQ(hits, batched.stats().hits);
        for (int s = 0; s < shards; ++s) {
          const ShardSnapshot a = single.shard_snapshot(s);
          const ShardSnapshot b = batched.shard_snapshot(s);
          SCOPED_TRACE(policy->name() + " shards=" + std::to_string(shards) +
                       " batch=" + std::to_string(batch) +
                       " shard=" + std::to_string(s));
          EXPECT_EQ(b.counters(), a.counters());
          EXPECT_EQ(b.cached_pages, a.cached_pages);
          EXPECT_EQ(b.capacity, a.capacity);
        }
      }
    }
  }
}

TEST(ConcurrentCache, LatencySketchesPopulate) {
  const Workload w = zipf_workload(2000);
  ConcurrentCache cache(w.inst, LruPolicy(), 4);
  server::serve_partitioned(cache, w.requests, 2);
  const ServerStats stats = cache.stats();
  EXPECT_GT(stats.lat_max_us, 0.0);
  EXPECT_GE(stats.lat_p99_us, 0.0);
  EXPECT_GE(stats.lat_p50_us, 0.0);
  EXPECT_GE(stats.lat_max_us, stats.lat_mean_us);
  // One latency sample per REQUEST, preserved by the shard merge; the
  // lock-wait histogram records one sample per get_batch call.
  EXPECT_EQ(stats.latency_us.count(),
            static_cast<std::uint64_t>(stats.requests));
  EXPECT_GE(stats.lock_wait_us.count(), 1u);
}

// Lock wait reports only real waiting: with one client no acquisition
// can block, so every lock_wait_us sample — still one per acquisition —
// is 0 rather than the cost of reading the clock.
TEST(ConcurrentCache, UncontendedLockWaitIsZero) {
  const Workload w = zipf_workload(5000);
  ConcurrentCache cache(w.inst, LruPolicy(), 4);
  server::serve_partitioned(cache, w.requests, 1);
  const ServerStats stats = cache.stats();
  EXPECT_GE(stats.lock_wait_us.count(), 1u);
  EXPECT_EQ(stats.lock_wait_us.quantile(0.5), 0.0);
  EXPECT_EQ(stats.lock_wait_us.max(), 0.0);
}

/// LRU-less minimal policy that busy-waits ~500us on exactly one request
/// (by arrival order) — a synthetic straggler for the latency tests.
class OneSlowRequestPolicy final : public OnlinePolicy {
 public:
  explicit OneSlowRequestPolicy(int slow_index) : slow_(slow_index) {}
  [[nodiscard]] std::string name() const override { return "OneSlow"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId p, CacheOps& cache) override {
    if (++calls_ == slow_) {
      const Stopwatch spin;
      while (spin.micros() < 500.0) {
      }
    }
    cache.fetch(p);
    while (cache.size() > cache.capacity()) {
      for (PageId q : cache.pages()) {
        if (q != p) {
          cache.evict(q);
          break;
        }
      }
    }
  }

 private:
  int slow_;
  int calls_ = 0;
};

// The per-request recording pin: one ~500us straggler inside a 512-wide
// batch must surface in the tail of the latency histogram. The old
// batch-mean recording (one sample = batch total / n) diluted even the
// max 512-fold (~1us), so these bounds fail against it.
TEST(CacheShard, OneSlowRequestInABatchMovesTheTail) {
  const Instance trace = zipf_trace_of(64, 4, 16, 512, 5);
  const std::vector<PageId>& requests = trace.requests;
  const Instance header{trace.blocks, {}, trace.k};
  CacheShard shard(header, std::make_unique<OneSlowRequestPolicy>(300), 1);
  shard.get_batch(requests.data(), static_cast<int>(requests.size()));

  const ShardSnapshot snap = shard.snapshot();
  EXPECT_EQ(snap.requests, 512);
  EXPECT_EQ(snap.latency_us.count(), 512u);
  // Rank 511 of 512 is the straggler itself: p999 and max must both see
  // it (max is exact; the quantile is a log-bucket midpoint, <= ~3% off).
  EXPECT_GE(snap.latency_us.max(), 400.0);
  EXPECT_GE(snap.latency_us.quantile(0.999), 300.0);
  EXPECT_GE(snap.lat_max_us, 400.0);
  // The bulk of the batch stays fast: the straggler must not drag the
  // median (it would under any form of batch averaging).
  EXPECT_LT(snap.latency_us.quantile(0.5), 250.0);
}

/// Serves nothing: every request stays uncached.
class LeavesRequestUncached final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Uncached"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId, CacheOps&) override {}
};

/// Fetches every request and never evicts, so it overfills the cache.
class Overfills final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Overfills"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId p, CacheOps& cache) override { cache.fetch(p); }
};

// The shard serves each request as a step of the shared step kernel, so
// it audits a broken policy as simulate() does, from get() and get_batch()
// alike: a server must not serve on from an infeasible cache.
TEST(CacheShard, AuditThrowsWhenRequestLeftUncached) {
  const Instance header{BlockMap::contiguous(16, 2), {}, 4};
  const std::vector<PageId> pages = {0, 5, 9};
  CacheShard one(header, std::make_unique<LeavesRequestUncached>(), 1);
  EXPECT_THROW(one.get(pages[0]), std::runtime_error);
  CacheShard batch(header, std::make_unique<LeavesRequestUncached>(), 1);
  EXPECT_THROW(batch.get_batch(pages.data(), static_cast<int>(pages.size())),
               std::runtime_error);
}

TEST(CacheShard, AuditThrowsWhenCapacityExceeded) {
  const Instance header{BlockMap::contiguous(16, 2), {}, 4};
  const std::vector<PageId> pages = {0, 3, 6, 9, 12};  // k + 1 distinct
  CacheShard one(header, std::make_unique<Overfills>(), 1);
  for (int i = 0; i < header.k; ++i) EXPECT_FALSE(one.get(pages[i]));
  EXPECT_THROW(one.get(pages[4]), std::runtime_error);
  CacheShard batch(header, std::make_unique<Overfills>(), 1);
  EXPECT_THROW(batch.get_batch(pages.data(), static_cast<int>(pages.size())),
               std::runtime_error);
}

TEST(ConcurrentCache, EmptyCacheReportsNaNLatencies) {
  const Workload w = zipf_workload(1);
  ConcurrentCache cache(w.inst, LruPolicy(), 3);
  const ServerStats stats = cache.stats();
  EXPECT_EQ(stats.requests, 0);
  EXPECT_EQ(stats.total_cost(), 0.0);
  // No requests -> no latency distribution. The derived fields follow
  // the repo-wide empty-histogram convention (NaN, not a fake 0 us
  // observation), matching obs::Histogram::mean()/max().
  EXPECT_TRUE(std::isnan(stats.lat_p50_us));
  EXPECT_TRUE(std::isnan(stats.lat_p99_us));
  EXPECT_TRUE(std::isnan(stats.lat_mean_us));
  EXPECT_TRUE(std::isnan(stats.lat_max_us));
  // Per-shard snapshots follow the same convention...
  const ShardSnapshot snap = cache.shard_snapshot(0);
  EXPECT_TRUE(std::isnan(snap.lat_p50_us));
  EXPECT_TRUE(std::isnan(snap.lat_max_us));
  // ...and the JSON layer renders the NaN as null, so emitters that
  // pass lat_* through write_json_number stay valid JSON.
  std::ostringstream os;
  write_json_number(os, stats.lat_p50_us);
  EXPECT_EQ(os.str(), "null");
}

// Randomized policies: per-shard seeds are (seed + shard), independent of
// the dispatch, so even Marking is thread-count invariant under
// partitioned dispatch.
TEST(ConcurrentCache, RandomizedPolicyStillThreadCountInvariant) {
  const Workload w = zipf_workload(10000);
  Cost baseline = -1;
  for (const int threads : {1, 4}) {
    ConcurrentCache cache(w.inst, MarkingPolicy(), 4, 99);
    server::serve_partitioned(cache, w.requests, threads);
    const Cost total = cache.stats().total_cost();
    if (baseline < 0)
      baseline = total;
    else
      EXPECT_EQ(total, baseline);
  }
}

}  // namespace
}  // namespace bac
