// Tests for the exact OPT solvers: hand-verifiable instances, brute-force
// cross-checks via intended schedules, consistency between the models, and
// the Claim 2.1 separation measured with real OPT.
#include <gtest/gtest.h>

#include "algs/policies/classical.hpp"
#include "algs/opt.hpp"
#include "core/simulator.hpp"
#include "trace/adversarial.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

TEST(ExactOpt, ZeroWhenEverythingFits) {
  const Instance inst = make_instance(4, 2, 4, {0, 1, 2, 3, 0, 1});
  EXPECT_DOUBLE_EQ(exact_opt_eviction(inst).cost, 0.0);
  // Fetching still pays the two cold block fetches.
  EXPECT_DOUBLE_EQ(exact_opt_fetching(inst).cost, 2.0);
}

TEST(ExactOpt, SinglePageOverflowEviction) {
  // 3 pages in 3 singleton blocks, k=2, requests 0 1 2: one eviction.
  const Instance inst = make_instance(3, 1, 2, {0, 1, 2});
  EXPECT_DOUBLE_EQ(exact_opt_eviction(inst).cost, 1.0);
  EXPECT_DOUBLE_EQ(exact_opt_fetching(inst).cost, 3.0);
}

TEST(ExactOpt, BatchedEvictionIsCheaper) {
  // 4 pages in one block + 2 singletons; k=4.
  // Requests fill the block then force two overflows; flushing the block
  // once (1 event) beats evicting two singletons (2 events)... construct:
  // pages 0..3 = block A, 4,5 singletons. k=4.
  std::vector<BlockId> assign{0, 0, 0, 0, 1, 2};
  Instance inst{BlockMap({assign}, {1.0, 1.0, 1.0}),
                {0, 1, 2, 3, 4, 5}, 4};
  // After 0..3 the cache is full; requests 4,5 need 2 slots; flushing A at
  // one step frees enough for both -> OPT_evict = 1.
  EXPECT_DOUBLE_EQ(exact_opt_eviction(inst).cost, 1.0);
}

TEST(ExactOpt, FetchingPrefetchPaysOffOnScans) {
  // One block of 4 scanned repeatedly with a competing singleton; k=4.
  std::vector<BlockId> assign{0, 0, 0, 0, 1};
  Instance inst{BlockMap({assign}, {1.0, 1.0}),
                {0, 1, 2, 3, 0, 1, 2, 3}, 4};
  // Fetch the whole block at the first miss: 1 event; nothing else needed.
  EXPECT_DOUBLE_EQ(exact_opt_fetching(inst).cost, 1.0);
}

TEST(ExactOpt, MatchesBeladyOnUnweightedPaging) {
  Xoshiro256pp rng(81);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 7, k = 3;
    Instance inst = make_instance(
        n, 1, k, uniform_trace(n, 18, rng.substream(trial)));
    BeladyPolicy belady;
    const RunResult r = simulate(inst, belady);
    const OptResult opt = exact_opt_fetching(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_DOUBLE_EQ(opt.cost, r.fetch_cost) << "trial " << trial;
  }
}

TEST(ExactOpt, NeverExceedsAnyFeasibleSchedule) {
  // OPT <= the Claim 2.1 intended schedules, in the matching model.
  for (int beta : {2, 3}) {
    const auto built = claim21_fetch_cheap(beta, 1);
    const ReplayResult sc =
        replay_schedule(built.instance, built.intended_schedule);
    ASSERT_TRUE(sc.feasible);
    OptLimits limits;
    limits.max_layer_states = 500'000;
    const OptResult f = exact_opt_fetching(built.instance, limits);
    if (f.exact) {
      EXPECT_LE(f.cost, sc.fetch_cost + 1e-9) << "beta=" << beta;
    }
    const OptResult e = exact_opt_eviction(built.instance, limits);
    if (e.exact) {
      EXPECT_LE(e.cost, sc.eviction_cost + 1e-9);
    }
  }
}

TEST(ExactOpt, Claim21SeparationBothDirections) {
  // The heart of Claim 2.1 measured with exact OPT: the model swap flips
  // which cost is larger. The proof needs enough repeats per round that
  // OPT cannot shortcut by thrashing within a round (its "sufficiently
  // large L"); beta = 3, repeats = 4 shows opt_fetch = 2*beta = 6 vs
  // opt_evict = beta^2 = 9 on the fetch-cheap side.
  {
    const auto built = claim21_fetch_cheap(3, 4);
    OptLimits limits;
    limits.max_layer_states = 2'000'000;
    const OptResult f = exact_opt_fetching(built.instance, limits);
    const OptResult e = exact_opt_eviction(built.instance, limits);
    ASSERT_TRUE(f.exact && e.exact);
    EXPECT_LT(f.cost, e.cost) << "fetch-cheap instance";
    EXPECT_DOUBLE_EQ(f.cost, 6.0);   // warm-up beta + one Q-block per round
    EXPECT_DOUBLE_EQ(e.cost, 9.0);   // beta evictions per round
  }
  {
    const auto built = claim21_evict_cheap(3, 2);
    OptLimits limits;
    limits.max_layer_states = 2'000'000;
    const OptResult f = exact_opt_fetching(built.instance, limits);
    const OptResult e = exact_opt_eviction(built.instance, limits);
    ASSERT_TRUE(f.exact && e.exact);
    EXPECT_LT(e.cost, f.cost) << "evict-cheap instance";
  }
}

TEST(ExactOpt, GapInstanceIntegerCostPerRound) {
  const int beta = 3;
  for (int rounds : {2, 3}) {
    const Instance inst = gap_instance(beta, rounds);
    const OptResult f = exact_opt_fetching(inst);
    ASSERT_TRUE(f.exact);
    // Integer OPT pays at least ~1 per round (2*beta pages, k = 2*beta-1)
    // and at most 2 per round.
    EXPECT_GE(f.cost, static_cast<double>(rounds) - 1e-9);
    EXPECT_LE(f.cost, 2.0 * rounds + 2.0);
  }
}

TEST(ExactOpt, DominancePruningPreservesOptimum) {
  Xoshiro256pp rng(82);
  for (int trial = 0; trial < 5; ++trial) {
    Instance inst = make_instance(
        6, 2, 3, uniform_trace(6, 14, rng.substream(trial)));
    OptLimits with, without;
    without.dominance_pruning = false;
    EXPECT_DOUBLE_EQ(exact_opt_eviction(inst, with).cost,
                     exact_opt_eviction(inst, without).cost);
    EXPECT_DOUBLE_EQ(exact_opt_fetching(inst, with).cost,
                     exact_opt_fetching(inst, without).cost);
  }
}

TEST(ExactOpt, WeightedBlocksRespected) {
  // Two blocks, one expensive; k forces one eviction: OPT picks the cheap
  // block.
  Instance inst = make_weighted_instance(4, 2, 3, {0, 1, 2, 3, 0, 1},
                                         {10.0, 1.0});
  // Cache fits 3 of 4 pages; the hole should rotate within the cheap block.
  const OptResult e = exact_opt_eviction(inst);
  ASSERT_TRUE(e.exact);
  EXPECT_LE(e.cost, 2.0 + 1e-9) << "evictions should use the cheap block";
}

TEST(ExactOpt, RejectsOversizedUniverse) {
  Instance inst = make_instance(70, 2, 10, {0});
  EXPECT_THROW(exact_opt_eviction(inst), std::invalid_argument);
}

}  // namespace
}  // namespace bac
