// Tests for the paper's constructions: Claim 2.1 instances (including
// their intended optimal schedules), the A.2 gap instance, the cyclic
// nemesis, and the adaptive (h,k) adversary.
#include <gtest/gtest.h>

#include "algs/policies/classical.hpp"
#include "core/schedule.hpp"
#include "core/simulator.hpp"
#include "trace/adversarial.hpp"

namespace bac {
namespace {

TEST(Claim21, FetchCheapInstanceShape) {
  const int beta = 3;
  const auto built = claim21_fetch_cheap(beta, 2);
  const Instance& inst = built.instance;
  EXPECT_EQ(inst.n_pages(), 2 * beta * beta);
  EXPECT_EQ(inst.k, beta * beta);
  EXPECT_EQ(inst.blocks.beta(), beta);
  inst.validate();
}

TEST(Claim21, FetchCheapIntendedScheduleIsFeasibleAndSkewed) {
  for (int beta : {2, 3, 4, 5}) {
    const auto built = claim21_fetch_cheap(beta, 2);
    const ReplayResult c =
        replay_schedule(built.instance, built.intended_schedule);
    ASSERT_TRUE(c.feasible) << "beta=" << beta << ": " << c.infeasibility;
    // Intended: fetch ~2*beta block events, evictions ~beta^2.
    EXPECT_LE(c.fetch_cost, 2.0 * beta + 1);
    EXPECT_GE(c.eviction_cost, static_cast<double>(beta) * beta - beta);
    EXPECT_GE(c.eviction_cost / c.fetch_cost,
              static_cast<double>(beta) / 3.0)
        << "eviction/fetch skew should grow linearly in beta";
  }
}

TEST(Claim21, EvictCheapIntendedScheduleIsFeasibleAndSkewed) {
  for (int beta : {2, 3, 4, 5}) {
    const auto built = claim21_evict_cheap(beta, 2);
    const ReplayResult c =
        replay_schedule(built.instance, built.intended_schedule);
    ASSERT_TRUE(c.feasible) << "beta=" << beta << ": " << c.infeasibility;
    // Intended: evict ~beta - 1 block events, fetch ~beta^2 + 2 beta.
    EXPECT_LE(c.eviction_cost, static_cast<double>(beta));
    EXPECT_GE(c.fetch_cost, static_cast<double>(beta) * (beta - 1));
    EXPECT_GE(c.fetch_cost / std::max(c.eviction_cost, 1.0),
              static_cast<double>(beta) / 2.0);
  }
}

TEST(GapInstance, Shape) {
  const Instance inst = gap_instance(4, 3);
  EXPECT_EQ(inst.n_pages(), 8);
  EXPECT_EQ(inst.k, 7);
  EXPECT_EQ(inst.blocks.n_blocks(), 2);
  EXPECT_EQ(inst.horizon(), 24);
  inst.validate();
}

TEST(CyclicNemesis, EveryRequestMissesForLru) {
  const Instance inst = cyclic_nemesis(4, 1, 40);
  LruPolicy lru;
  const RunResult r = simulate(inst, lru);
  EXPECT_EQ(r.misses, 40) << "k+1 cyclic pages defeat LRU completely";
}

TEST(AdaptiveAdversary, ForcesMissEveryStepOnLru) {
  LruPolicy lru;
  const auto res = run_adaptive_adversary(lru, /*k=*/8, /*block_size=*/2,
                                          /*h=*/4, /*T=*/200);
  // Every request is to an absent page, so the online policy pays at least
  // one block fetch per step.
  EXPECT_GE(res.online_fetch, 200.0);
  EXPECT_EQ(res.instance.horizon(), 200);
  res.instance.validate();
}

TEST(AdaptiveAdversary, UniverseSizeMatchesBgm21) {
  LruPolicy lru;
  const int k = 8, B = 3, h = 4;
  const auto res = run_adaptive_adversary(lru, k, B, h, 50);
  EXPECT_EQ(res.instance.n_pages(), k + (B - 1) * (h - 1) + 1);
}

TEST(AdaptiveAdversary, Bgm21FormulaValues) {
  EXPECT_DOUBLE_EQ(bgm21_lower_bound(8, 1, 1), 1.0);  // classic k/k
  // k = h: (k + (B-1)(k-1)) / 1.
  EXPECT_DOUBLE_EQ(bgm21_lower_bound(4, 2, 4), 7.0);
  EXPECT_NEAR(bgm21_lower_bound(16, 4, 8), (16 + 3 * 7) / 9.0, 1e-12);
}

TEST(AdaptiveAdversary, RejectsBadParameters) {
  LruPolicy lru;
  EXPECT_THROW(run_adaptive_adversary(lru, 4, 2, 0, 10),
               std::invalid_argument);
  EXPECT_THROW(run_adaptive_adversary(lru, 4, 2, 5, 10),
               std::invalid_argument);
  // Blocks larger than the cache are refused before a block policy
  // serves a step over them.
  BlockLruPolicy block_lru(false);
  EXPECT_THROW(run_adaptive_adversary(block_lru, 4, 8, 2, 50),
               std::invalid_argument);
}

}  // namespace
}  // namespace bac
