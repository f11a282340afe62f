// Tests for the Section 4.1 bicriteria roundings (Theorem 4.1): the 2k
// space bound, the 2x cost bound against the fractional block-batched
// cost, and the Corollary 4.2 offline pipeline (LP solve + rounding).
#include <gtest/gtest.h>

#include "algs/bicriteria.hpp"
#include "algs/policies/fractional_paging.hpp"
#include "algs/opt.hpp"
#include "lp/naive_lp.hpp"
#include "trace/adversarial.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

std::vector<std::vector<double>> collect_fractional_paging_x(
    const Instance& inst) {
  FractionalWeightedPaging fp(inst);
  std::vector<std::vector<double>> x;
  x.push_back(std::vector<double>(static_cast<std::size_t>(inst.n_pages()), 1.0));
  for (Time t = 1; t <= inst.horizon(); ++t)
    x.push_back(fp.step(inst.request_at(t)));
  return x;
}

TEST(Bicriteria, FractionalPagingXIsLpFeasible) {
  Xoshiro256pp rng(91);
  const Instance inst = make_instance(12, 3, 4,
                                      zipf_trace(12, 200, 0.8, rng));
  const auto x = collect_fractional_paging_x(inst);
  EXPECT_EQ(check_fractional_feasible(inst, x), 0)
      << "fractional paging must satisfy the naive LP constraints";
}

TEST(Bicriteria, FetchRoundingRespectsTheorem41Bounds) {
  Xoshiro256pp rng(92);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = make_instance(
        16, 4, 5, zipf_trace(16, 300, 0.9, rng.substream(trial)));
    const auto x = collect_fractional_paging_x(inst);
    const auto outcome = round_fetch_threshold(inst, x);
    EXPECT_LE(outcome.max_cache_used, 2 * inst.k)
        << "space bound violated (trial " << trial << ")";
    const Cost frac = fractional_block_fetch_cost(inst, x);
    EXPECT_LE(outcome.fetch_cost, 2.0 * frac + 1e-6)
        << "cost bound violated (trial " << trial << ")";
  }
}

TEST(Bicriteria, FetchRoundingServesEveryRequest) {
  Xoshiro256pp rng(93);
  const Instance inst = make_instance(10, 2, 4,
                                      uniform_trace(10, 150, rng));
  const auto x = collect_fractional_paging_x(inst);
  const auto outcome = round_fetch_threshold(inst, x);
  // Verify against a relaxed instance with doubled cache.
  Instance relaxed = inst;
  relaxed.k = 2 * inst.k;
  const ReplayResult sc = replay_schedule(relaxed, outcome.schedule);
  EXPECT_TRUE(sc.feasible) << sc.infeasibility;
  EXPECT_DOUBLE_EQ(sc.fetch_cost, outcome.fetch_cost);
}

TEST(Bicriteria, EvictRoundingRespectsBounds) {
  Xoshiro256pp rng(94);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = make_instance(
        12, 3, 4, zipf_trace(12, 250, 1.0, rng.substream(trial)));
    const auto x = collect_fractional_paging_x(inst);
    const auto outcome = round_evict_threshold(inst, x);
    EXPECT_LE(outcome.max_cache_used, 2 * inst.k + 1);
    const Cost frac = fractional_block_evict_cost(inst, x);
    EXPECT_LE(outcome.eviction_cost, 2.0 * frac + 1e-6)
        << "trial " << trial;
  }
}

TEST(Bicriteria, LpSolutionRoundsToTwoApproxWithDoubleCache) {
  // Corollary 4.2 pipeline: solve the fetching LP exactly, round, compare
  // to OPT(h): cost <= 2 * LP <= 2 * OPT with space 2h.
  Xoshiro256pp rng(95);
  for (int trial = 0; trial < 3; ++trial) {
    const int n = 6, beta = 2, h = 3;
    Instance inst = make_instance(
        n, beta, h, uniform_trace(n, 16, rng.substream(trial)));
    const auto lp = solve_naive_lp(inst, CostModel::Fetching);
    ASSERT_EQ(lp.status, LpStatus::Optimal);
    ASSERT_EQ(check_fractional_feasible(inst, lp.x), 0);
    const auto outcome = round_fetch_threshold(inst, lp.x);
    EXPECT_LE(outcome.max_cache_used, 2 * h);
    const OptResult opt = exact_opt_fetching(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_LE(outcome.fetch_cost, 2.0 * opt.cost + 1e-6)
        << "2-approximation with doubled cache (trial " << trial << ")";
  }
}

TEST(Bicriteria, GapInstanceShowsLpRoundingTension) {
  // On the A.2 instance the LP is tiny but rounding with 2k space is easy:
  // with k = 2*beta - 1 doubled, everything fits after warm-up.
  const Instance inst = gap_instance(3, 3);
  const auto lp = solve_naive_lp(inst, CostModel::Fetching);
  ASSERT_EQ(lp.status, LpStatus::Optimal);
  const auto outcome = round_fetch_threshold(inst, lp.x);
  EXPECT_LE(outcome.max_cache_used, 2 * inst.k);
  EXPECT_LE(outcome.fetch_cost, 2.0 * lp.objective + 1e-6);
}

TEST(Bicriteria, FractionalCostFunctionalsAgreeOnIntegralMoves) {
  // An integral x (0/1) should make the fractional block costs equal the
  // batched schedule costs of the same moves.
  const Instance inst = make_instance(4, 2, 2, {0, 1, 2, 3});
  // x: start all 1. Step 1: page0 in. Step2: page1 in, page0... build by
  // hand: cache = last two requested pages (within one block at a time).
  std::vector<std::vector<double>> x(5,
      std::vector<double>(4, 1.0));
  x[1] = {0, 1, 1, 1};
  x[2] = {0, 0, 1, 1};
  x[3] = {1, 1, 0, 1};  // block 0 evicted, page 2 fetched
  x[4] = {1, 1, 0, 0};
  EXPECT_EQ(check_fractional_feasible(inst, x), 0);
  // Fetches: t1 (p0), t2 (p1), t3 (p2), t4 (p3) but t1/t2 same block ->
  // block fetch cost = 1 + 1 + 1 + 1 = 4? max-decrease per block per step:
  // t1: block0 dec 1 -> 1; t2: block0 dec 1 -> 1; t3: block1 dec 1;
  // t4: block1 dec 1. Total 4.
  EXPECT_DOUBLE_EQ(fractional_block_fetch_cost(inst, x), 4.0);
  // Evictions: t3: block0 pages rise by 1 (max 1) -> 1. Total 1.
  EXPECT_DOUBLE_EQ(fractional_block_evict_cost(inst, x), 1.0);
}

}  // namespace
}  // namespace bac
