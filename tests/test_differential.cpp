// Randomized differential tests: every optimized data structure is run
// against a straightforward reference implementation on long random
// operation streams.
//
//  - CacheSet vs std::set<PageId>
//  - CostMeter vs a naive per-step recomputation of batched costs
//  - FlushVars::x_value vs the definition (3.2) evaluated from scratch
//  - MissRatioCurve (the Fenwick stack-distance engine) vs an O(T * n)
//    list-based LRU stack
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>

#include "core/cache_set.hpp"
#include "core/cost_meter.hpp"
#include "core/mrc.hpp"
#include "submodular/flush_vars.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace bac {
namespace {

TEST(Differential, CacheSetAgainstStdSet) {
  Xoshiro256pp rng(301);
  const int n = 40;
  CacheSet fast(n);
  std::set<PageId> reference;
  for (int op = 0; op < 20'000; ++op) {
    const auto p = static_cast<PageId>(rng.below(n));
    switch (rng.below(3)) {
      case 0: {
        const bool inserted = fast.insert(p);
        ASSERT_EQ(inserted, reference.insert(p).second);
        break;
      }
      case 1: {
        const bool erased = fast.erase(p);
        ASSERT_EQ(erased, reference.erase(p) > 0);
        break;
      }
      default:
        ASSERT_EQ(fast.contains(p), reference.count(p) > 0);
    }
    ASSERT_EQ(fast.size(), static_cast<int>(reference.size()));
  }
  // Membership list must match as a set.
  std::vector<PageId> members = fast.pages();
  std::sort(members.begin(), members.end());
  std::vector<PageId> expect(reference.begin(), reference.end());
  ASSERT_EQ(members, expect);
}

TEST(Differential, CostMeterAgainstNaiveRecount) {
  Xoshiro256pp rng(302);
  const BlockMap blocks = BlockMap::contiguous_weighted(
      12, 3, {1.0, 2.5, 0.5, 4.0});
  CostMeter meter(blocks);

  Cost naive_evict = 0, naive_fetch = 0;
  for (Time t = 1; t <= 500; ++t) {
    meter.begin_step(t);
    std::set<BlockId> evicted_blocks, fetched_blocks;
    const int ops = 1 + static_cast<int>(rng.below(5));
    for (int i = 0; i < ops; ++i) {
      const auto p = static_cast<PageId>(rng.below(12));
      if (rng.bernoulli(0.5)) {
        meter.on_evict(p);
        evicted_blocks.insert(blocks.block_of(p));
      } else {
        meter.on_fetch(p);
        fetched_blocks.insert(blocks.block_of(p));
      }
    }
    for (BlockId b : evicted_blocks) naive_evict += blocks.cost(b);
    for (BlockId b : fetched_blocks) naive_fetch += blocks.cost(b);
    ASSERT_NEAR(meter.eviction_cost(), naive_evict, 1e-9) << "t=" << t;
    ASSERT_NEAR(meter.fetch_cost(), naive_fetch, 1e-9) << "t=" << t;
  }
}

TEST(Differential, XValueAgainstDefinition) {
  Xoshiro256pp rng(303);
  const BlockMap blocks = BlockMap::contiguous(10, 2);
  FlushCoverage cov(blocks, 4);
  FlushVars vars(blocks.n_blocks());
  // Interleave requests and random phi increases; check x for all pages.
  std::vector<std::vector<std::pair<Time, double>>> raw(
      static_cast<std::size_t>(blocks.n_blocks()));
  for (Time t = 1; t <= 120; ++t) {
    cov.advance(static_cast<PageId>(rng.below(10)), t);
    if (rng.bernoulli(0.7)) {
      const auto b = static_cast<BlockId>(rng.below(5));
      const auto ft = static_cast<Time>(1 + rng.below(static_cast<std::uint64_t>(t)));
      const double delta = rng.uniform() * 0.3;
      vars.increase(b, ft, delta);
      raw[static_cast<std::size_t>(b)].emplace_back(ft, delta);
    }
    for (PageId p = 0; p < 10; ++p) {
      const Time r = cov.last_request(p);
      double expect;
      if (r == kNeverRequested) {
        expect = 1.0;
      } else {
        double mass = 0;
        for (const auto& [ft, d] :
             raw[static_cast<std::size_t>(blocks.block_of(p))])
          if (ft > r) mass += d;
        expect = std::min(1.0, mass);
      }
      ASSERT_NEAR(vars.x_value(cov, p), expect, 1e-9)
          << "p=" << p << " t=" << t;
    }
  }
}

TEST(Differential, StackDistanceHitRateAgainstListLru) {
  Xoshiro256pp rng(304);
  const std::vector<std::pair<int, std::vector<PageId>>> traces = {
      {30, zipf_trace(30, 1500, 0.9, rng)},
      {24, zipf_trace(24, 3000, 0.8, Xoshiro256pp(11))},
      {8, scan_trace(8, 40)},
      {4, {1, 1, 1}},
      {4, {}}};
  for (const auto& [n, requests] : traces) {
    MissRatioCurve curve(n);
    for (const PageId p : requests) curve.add(p);
    ASSERT_EQ(curve.requests(), static_cast<long long>(requests.size()));
    // Reference: an explicit LRU stack as a list, most recent first. A
    // request found at 0-based position d hits every cache of k > d pages.
    std::list<PageId> stack;
    std::vector<long long> at_position(static_cast<std::size_t>(n), 0);
    long long first_seen = 0;
    for (const PageId p : requests) {
      const auto it = std::find(stack.begin(), stack.end(), p);
      if (it == stack.end()) {
        ++first_seen;
      } else {
        ++at_position[static_cast<std::size_t>(
            std::distance(stack.begin(), it))];
        stack.erase(it);
      }
      stack.push_front(p);
    }
    EXPECT_EQ(curve.compulsory_misses(), first_seen) << "n=" << n;
    long long hits = 0;
    for (int k = 1; k <= n; ++k) {
      hits += at_position[static_cast<std::size_t>(k - 1)];
      const double expect =
          requests.empty() ? 1.0
                           : 1.0 - static_cast<double>(hits) /
                                       static_cast<double>(requests.size());
      ASSERT_NEAR(curve.miss_ratio(k), expect, 1e-12)
          << "n=" << n << " k=" << k;
    }
  }
  // A scan over n pages reuses every page at stack distance n exactly:
  // no hits below k = n, then every reuse hits (32 of 40 requests).
  MissRatioCurve scan(8);
  for (const PageId p : scan_trace(8, 40)) scan.add(p);
  EXPECT_DOUBLE_EQ(scan.miss_ratio(7), 1.0);
  EXPECT_NEAR(scan.miss_ratio(8), 8.0 / 40.0, 1e-12);
}

TEST(Differential, FlushSetIncrementalGAgainstRecount) {
  Xoshiro256pp rng(305);
  const BlockMap blocks = BlockMap::contiguous(12, 4);
  FlushCoverage cov(blocks, 5);
  FlushSet set(cov);
  for (Time t = 1; t <= 200; ++t) {
    FlushSet* sets[] = {&set};
    cov.advance(static_cast<PageId>(rng.below(12)), t, sets);
    if (rng.bernoulli(0.25))
      set.add_flush(static_cast<BlockId>(rng.below(3)),
                    static_cast<Time>(rng.below(static_cast<std::uint64_t>(t) + 1)));
    // Recount g from the definition: a page is missing iff its last
    // request precedes its block's max flush.
    int g = 0;
    for (PageId p = 0; p < 12; ++p)
      if (cov.last_request(p) < set.max_flush(blocks.block_of(p))) ++g;
    ASSERT_EQ(set.g(), g) << "t=" << t;
  }
}

}  // namespace
}  // namespace bac
