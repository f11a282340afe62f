// Tests for Algorithm 2 (fractional, Theorem 3.6): monotone increments,
// per-step feasibility of the maintained solution, integral set coherence,
// cost vs dual ratio, and dual validity against exact OPT.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "algs/fractional.hpp"
#include "algs/opt.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "verify/reference_policies.hpp"

namespace bac {
namespace {

/// Drive the fractional algorithm over a whole instance.
void run_all(FractionalBlockAware& alg, const Instance& inst) {
  for (Time t = 1; t <= inst.horizon(); ++t)
    alg.step(t, inst.request_at(t));
}

TEST(Fractional, IncrementsAreMonotoneAndBounded) {
  Xoshiro256pp rng(61);
  const Instance inst = make_instance(12, 3, 4,
                                      zipf_trace(12, 120, 0.8, rng));
  FractionalBlockAware alg(inst.blocks, inst.k);
  for (Time t = 1; t <= inst.horizon(); ++t) {
    for (const auto& inc : alg.step(t, inst.request_at(t))) {
      ASSERT_GT(inc.delta, 0.0);
      ASSERT_LE(inc.new_value, 1.0 + 1e-9);
      ASSERT_LE(inc.t, t);
    }
  }
}

TEST(Fractional, NoViolatedConstraintAfterEachStep) {
  Xoshiro256pp rng(62);
  const Instance inst = make_instance(8, 2, 4,
                                      uniform_trace(8, 60, rng));
  FractionalBlockAware alg(inst.blocks, inst.k);
  ThresholdSeparation oracle;
  for (Time t = 1; t <= inst.horizon(); ++t) {
    alg.step(t, inst.request_at(t));
    EXPECT_FALSE(
        oracle.find_violated(alg.integral_set(), alg.vars()).has_value())
        << "constraint left violated at t=" << t;
  }
}

TEST(Fractional, DpOracleRunIsExactlyFeasible) {
  // Driven by the exact DP separation oracle, the maintained solution
  // satisfies *every* superset constraint after every step — confirmed by
  // the exponential-time exhaustive oracle.
  Xoshiro256pp rng(63);
  const Instance inst = make_instance(6, 2, 3,
                                      uniform_trace(6, 25, rng));
  FractionalBlockAware alg(inst.blocks, inst.k,
                           std::make_unique<DpSeparation>());
  verify::ExhaustiveSeparation exhaustive;
  for (Time t = 1; t <= inst.horizon(); ++t) {
    alg.step(t, inst.request_at(t));
    EXPECT_FALSE(
        exhaustive.find_violated(alg.integral_set(), alg.vars()).has_value())
        << "exhaustive oracle found a violation at t=" << t;
  }
}

TEST(Fractional, ThresholdAndDpOracleCostsAreClose) {
  // The fast threshold oracle only searches the level-set family (see
  // submodular/separation.hpp) and may leave rare mixed-level constraints
  // unsatisfied; its fractional cost should nevertheless track the exact
  // oracle's closely on typical traces.
  Xoshiro256pp rng(60);
  const Instance inst = make_instance(12, 3, 4,
                                      zipf_trace(12, 150, 0.9, rng));
  FractionalBlockAware fast(inst.blocks, inst.k,
                            std::make_unique<ThresholdSeparation>());
  FractionalBlockAware exact(inst.blocks, inst.k,
                             std::make_unique<DpSeparation>());
  for (Time t = 1; t <= inst.horizon(); ++t) {
    fast.step(t, inst.request_at(t));
    exact.step(t, inst.request_at(t));
  }
  ASSERT_GT(exact.fractional_cost(), 0.0);
  EXPECT_LE(fast.fractional_cost(), exact.fractional_cost() * 1.25 + 1e-9);
  EXPECT_GE(fast.fractional_cost(), exact.fractional_cost() * 0.5 - 1e-9);
}

TEST(Fractional, IntegralSetMembersHavePhiOne) {
  Xoshiro256pp rng(64);
  const Instance inst = make_instance(10, 2, 4,
                                      zipf_trace(10, 80, 1.0, rng));
  FractionalBlockAware alg(inst.blocks, inst.k);
  run_all(alg, inst);
  // Every block's max integral flush must have phi == 1 (Lemma 3.8's
  // invariant: elements enter S exactly when their variable saturates).
  for (BlockId b = 0; b < inst.blocks.n_blocks(); ++b) {
    const Time m = alg.integral_set().max_flush(b);
    if (m > 0) {
      EXPECT_NEAR(alg.vars().get(b, m), 1.0, 1e-6) << "block " << b;
    }
  }
}

TEST(Fractional, DualLowerBoundsExactOpt) {
  Xoshiro256pp rng(65);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = make_instance(
        8, 2, 4, uniform_trace(8, 30, rng.substream(trial)));
    FractionalBlockAware alg(inst.blocks, inst.k);
    run_all(alg, inst);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_LE(alg.dual_objective(), opt.cost + 1e-6) << "trial " << trial;
  }
}

TEST(Fractional, CostWithinLogFactorOfDual) {
  // Theorem 3.6: cost <= O(log k) * dual. The proof constant is
  // 2 ln(k beta + 1); verify with slack.
  Xoshiro256pp rng(66);
  for (int trial = 0; trial < 5; ++trial) {
    const int k = 4 << trial;  // 4..64
    const int n = 3 * k;
    const Instance inst = make_instance(
        n, 4, k, uniform_trace(n, 120 + 20 * k, rng.substream(trial)));
    FractionalBlockAware alg(inst.blocks, inst.k);
    run_all(alg, inst);
    if (alg.dual_objective() <= 1e-9) continue;
    const double bound =
        2.0 * std::log(static_cast<double>(k) * inst.blocks.beta() + 1.0) + 1.0;
    EXPECT_LE(alg.fractional_cost() / alg.dual_objective(), bound + 1e-6)
        << "k=" << k;
  }
}

TEST(Fractional, CostNeverExceedsIntegralFlushTotal) {
  // Fractional relaxation: phi <= characteristic vector of the integral
  // flushes it adopted, plus fractional mass strictly below 1 each.
  Xoshiro256pp rng(67);
  const Instance inst = make_instance(9, 3, 3,
                                      uniform_trace(9, 60, rng));
  FractionalBlockAware alg(inst.blocks, inst.k);
  run_all(alg, inst);
  // Sanity: fractional cost is positive when evictions were necessary and
  // not absurdly larger than the number of integral flushes.
  EXPECT_GT(alg.fractional_cost(), 0.0);
  EXPECT_LE(alg.fractional_cost(),
            static_cast<double>(alg.integral_flushes()) +
                static_cast<double>(inst.horizon()));
}

TEST(Fractional, NoWorkWhenCacheFits) {
  const Instance inst = make_instance(6, 2, 6, scan_trace(6, 24));
  FractionalBlockAware alg(inst.blocks, inst.k);
  run_all(alg, inst);
  EXPECT_DOUBLE_EQ(alg.fractional_cost(), 0.0);
  EXPECT_DOUBLE_EQ(alg.dual_objective(), 0.0);
  EXPECT_EQ(alg.integral_flushes(), 0);
}

TEST(Fractional, WeightedCostsRespectDualBound) {
  Xoshiro256pp rng(68);
  auto costs = log_uniform_costs(6, 16.0, rng);
  Instance inst = make_weighted_instance(
      12, 2, 4, zipf_trace(12, 150, 0.9, rng.substream(1)), std::move(costs));
  FractionalBlockAware alg(inst.blocks, inst.k);
  run_all(alg, inst);
  ASSERT_GT(alg.dual_objective(), 0.0);
  const double bound =
      2.0 * std::log(static_cast<double>(inst.k) * inst.blocks.beta() + 1.0) +
      1.0;
  EXPECT_LE(alg.fractional_cost() / alg.dual_objective(), bound + 1e-6);
}

TEST(Fractional, CachedThresholdOracleIsBitIdenticalToReference) {
  // Whole runs on the cached ThresholdSeparation and on its frozen
  // stateless twin: every step's increments must agree bit for bit, on a
  // blocklocal trace and on a weighted-cost zipf trace.
  const BlockMap blocks = BlockMap::contiguous(64, 4);
  const Instance blocklocal{
      blocks, block_local_trace(blocks, 1500, 0.75, 0.9, Xoshiro256pp(81)),
      16};
  Xoshiro256pp rng(82);
  auto costs = log_uniform_costs(16, 16.0, rng);
  const Instance weighted = make_weighted_instance(
      48, 3, 8, zipf_trace(48, 1000, 0.9, rng.substream(1)),
      std::move(costs));
  for (const Instance* inst : {&blocklocal, &weighted}) {
    FractionalBlockAware fast(inst->blocks, inst->k,
                              std::make_unique<ThresholdSeparation>());
    FractionalBlockAware twin(
        inst->blocks, inst->k,
        std::make_unique<verify::ReferenceThresholdSeparation>());
    std::size_t increments = 0;
    for (Time t = 1; t <= inst->horizon(); ++t) {
      const auto& a = fast.step(t, inst->request_at(t));
      const auto& b = twin.step(t, inst->request_at(t));
      ASSERT_TRUE(verify::bit_identical(a, b))
          << "increments diverge at t=" << t << " (" << a.size() << " vs "
          << b.size() << ")";
      increments += a.size();
    }
    EXPECT_GT(increments, static_cast<std::size_t>(inst->horizon()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.dual_objective()),
              std::bit_cast<std::uint64_t>(twin.dual_objective()));
    EXPECT_EQ(fast.integral_flushes(), twin.integral_flushes());
  }
}

TEST(Fractional, MatchesFrozenTwinBitForBit) {
  // The production class (cached oracle deciding S' from per-block sums,
  // bisection inside a certified bracket) against its frozen twin, which
  // evaluates every halving under the stateless oracle: increments at
  // every step, the dual and the fractional cost, bit for bit. The
  // instances cover unit and log-uniform block costs, a small k * beta
  // (eps = 1/6) and cap = n - k < beta, where min(gm, cap - g) caps terms.
  const BlockMap unit = BlockMap::contiguous(64, 4);
  Xoshiro256pp rng(83);
  const std::vector<Instance> instances = {
      {unit, block_local_trace(unit, 1500, 0.75, 0.9, Xoshiro256pp(84)), 16},
      make_weighted_instance(64, 8, 12,
                             block_local_trace(BlockMap::contiguous(64, 8),
                                               1500, 0.75, 0.9,
                                               rng.substream(1)),
                             log_uniform_costs(8, 32.0, rng.substream(2))),
      make_instance(12, 2, 3, zipf_trace(12, 1500, 0.9, rng.substream(3))),
      make_instance(40, 8, 34, zipf_trace(40, 1500, 0.9, rng.substream(4)))};
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    FractionalBlockAware fast(inst.blocks, inst.k);
    verify::ReferenceFractionalBlockAware twin(inst.blocks, inst.k);
    for (Time t = 1; t <= inst.horizon(); ++t) {
      const auto& a = fast.step(t, inst.request_at(t));
      const auto& b = twin.step(t, inst.request_at(t));
      ASSERT_TRUE(verify::bit_identical(a, b))
          << "instance " << i << ": increments diverge at t=" << t << " ("
          << a.size() << " vs " << b.size() << ")";
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.dual_objective()),
              std::bit_cast<std::uint64_t>(twin.dual_objective()))
        << "instance " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.fractional_cost()),
              std::bit_cast<std::uint64_t>(twin.fractional_cost()))
        << "instance " << i;
    // Both shortcuts ran: S' were scored, and some bisections decided
    // halvings without evaluating them.
    const FractionalBlockAware::Counts& c = fast.counts();
    EXPECT_GT(fast.separation_counts().scored, 0) << "instance " << i;
    EXPECT_GT(c.bisections, 0) << "instance " << i;
    EXPECT_LT(c.lhs_evals, 30 * c.bisections) << "instance " << i;
  }
}

TEST(Fractional, StdExpStaysWithinTheBracketsUlpAssumption) {
  // Every certified bracket over a std::exp reading assumes std::exp is
  // within kExpUlps ulps of exp (util/certified_bracket.hpp), over every
  // argument the bisections hand it or certify through: the saturation
  // bracket's r * d in [0, ln(k beta + 1) + 1], the growth bracket's y
  // near log g* (g* can sit a few ulps below 1, so y can be a little
  // below 0), and the mass bracket's s / c for every cost class, up to
  // exp's overflow point ln(DBL_MAX) ~ 709.78 (a term it caps at 1 relies
  // on the reading there). Sample [0, 64] and [0, 709.78] uniformly and
  // (0, 1] and [-1, 0) log-uniformly against expl.
  if (std::numeric_limits<long double>::digits < 64)
    GTEST_SKIP() << "no wider long double to measure against";
  Xoshiro256pp rng(85);
  double worst = 0;           // in ulps of the result
  long double worst_rel = 0;  // relative to exp
  const auto measure = [&](double x) {
    const double got = std::exp(x);
    const long double want = expl(static_cast<long double>(x));
    const double ulp = std::nextafter(got, std::numeric_limits<double>::infinity()) - got;
    const long double err = static_cast<long double>(got) - want;
    const long double abs_err = err < 0 ? -err : err;
    worst = std::max(
        worst, static_cast<double>(abs_err / static_cast<long double>(ulp)));
    worst_rel = std::max(worst_rel, abs_err / want);
  };
  const double overflow = std::log(std::numeric_limits<double>::max());
  for (int i = 0; i < 200000; ++i) {
    measure(64.0 * rng.uniform());
    measure(overflow * rng.uniform());
    const double tiny = std::exp2(-60.0 * rng.uniform());
    measure(tiny);
    measure(-tiny);
  }
  EXPECT_LE(worst, kExpUlps)
      << "std::exp is less accurate than the certified brackets assume";
  // kExpModel, the relative form the growth and mass brackets certify
  // under, holds with it.
  EXPECT_LE(worst_rel, static_cast<long double>(kExpModel.rel))
      << "std::exp is less accurate than kExpModel says";
  EXPECT_GT(worst, 0.0);  // the comparison measured something
}

}  // namespace
}  // namespace bac
