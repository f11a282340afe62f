// Tests for Algorithms 3+4 (randomized rounding, Theorem 3.12):
// feasibility, determinism per seed, expected cost vs the fractional and
// dual benchmarks, and structure-transform accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "algs/rounding.hpp"
#include "core/simulator.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

TEST(Rounding, FeasibleAcrossSeeds) {
  Xoshiro256pp rng(71);
  const Instance inst = make_instance(16, 4, 6,
                                      zipf_trace(16, 300, 0.9, rng));
  RandomizedBlockAware alg;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimOptions opt;
    opt.seed = seed;
    const RunResult r = simulate(inst, alg, opt);  // throws on violation
    EXPECT_EQ(r.violations, 0);
  }
}

TEST(Rounding, DeterministicPerSeed) {
  Xoshiro256pp rng(72);
  const Instance inst = make_instance(12, 3, 5,
                                      uniform_trace(12, 200, rng));
  RandomizedBlockAware alg;
  SimOptions opt;
  opt.seed = 1234;
  const RunResult a = simulate(inst, alg, opt);
  const RunResult b = simulate(inst, alg, opt);
  EXPECT_DOUBLE_EQ(a.eviction_cost, b.eviction_cost);
  EXPECT_EQ(a.evict_block_events, b.evict_block_events);
}

TEST(Rounding, GammaMatchesPaper) {
  const Instance inst = make_instance(16, 4, 8, scan_trace(16, 20));
  RandomizedBlockAware alg;
  simulate(inst, alg);
  const double expected = std::log(4.0 * 8 * 8 * 4 * 1.0);
  EXPECT_NEAR(alg.gamma(), expected, 1e-12);
}

TEST(Rounding, ExpectedCostWithinGammaFactorOfFractional) {
  // Lemma 3.16: E[cost] <= (gamma + O(1)) * fractional cost. Measure the
  // mean over seeds and compare with slack.
  Xoshiro256pp rng(73);
  const Instance inst = make_instance(18, 3, 6,
                                      zipf_trace(18, 400, 0.8, rng));
  RandomizedBlockAware alg;
  const MonteCarloResult mc = simulate_mc(inst, alg, 12, 99);
  // fractional_cost() reflects the last run; the fractional algorithm is
  // deterministic so it is identical across seeds.
  const double frac = alg.fractional_cost();
  ASSERT_GT(frac, 0.0);
  EXPECT_LE(mc.mean_eviction_cost, (alg.gamma() + 3.0) * frac * 1.5)
      << "rounding overhead exceeded the theorem's shape";
}

TEST(Rounding, StructuredCostWithinConstantOfFractional) {
  // Lemma 3.14: the transform costs at most a constant factor more.
  Xoshiro256pp rng(74);
  const Instance inst = make_instance(20, 4, 8,
                                      zipf_trace(20, 500, 1.0, rng));
  RandomizedBlockAware alg;
  simulate(inst, alg);
  ASSERT_GT(alg.fractional_cost(), 0.0);
  EXPECT_LE(alg.structured_cost(), 4.0 * alg.fractional_cost() + 1.0)
      << "structure transform should be a constant-factor blowup";
}

TEST(Rounding, NoFallbacksOnHealthyRuns) {
  Xoshiro256pp rng(75);
  const Instance inst = make_instance(12, 2, 6,
                                      zipf_trace(12, 300, 0.7, rng));
  RandomizedBlockAware alg;
  SimOptions opt;
  opt.seed = 7;
  simulate(inst, alg, opt);
  // Alterations are expected; fallbacks (no positive-x page to evict)
  // should be rare to none.
  EXPECT_LE(alg.fallback_alterations(), alg.alterations());
}

TEST(Rounding, RandomizedBeatsDeterministicKBoundInExpectation) {
  // Sanity-scale comparison: on a scan workload with many blocks the
  // randomized algorithm should not be catastrophically worse than its
  // fractional base — the O(log k log kDelta) vs k separation shows up at
  // larger k; here we just require a sane multiple.
  const Instance inst = make_instance(32, 4, 8, scan_trace(32, 800));
  RandomizedBlockAware alg;
  const MonteCarloResult mc = simulate_mc(inst, alg, 6, 5);
  ASSERT_GT(alg.fractional_cost(), 0.0);
  EXPECT_LE(mc.mean_eviction_cost / alg.fractional_cost(),
            3.0 * (alg.gamma() + 3.0));
}

TEST(Rounding, AblationWithoutStructureStillFeasible) {
  Xoshiro256pp rng(76);
  const Instance inst = make_instance(12, 3, 6,
                                      uniform_trace(12, 200, rng));
  RandomizedBlockAware::Options options;
  options.apply_structure = false;
  RandomizedBlockAware alg(options);
  SimOptions opt;
  opt.seed = 11;
  const RunResult r = simulate(inst, alg, opt);
  EXPECT_EQ(r.violations, 0);
}

TEST(Rounding, GammaOverrideRespected) {
  const Instance inst = make_instance(8, 2, 4, scan_trace(8, 40));
  RandomizedBlockAware::Options options;
  options.gamma_override = 2.5;
  RandomizedBlockAware alg(options);
  simulate(inst, alg);
  EXPECT_DOUBLE_EQ(alg.gamma(), 2.5);
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

TEST(Rounding, SeededRunsArePinned) {
  // Exact outputs of seeded rand_online runs: any speed change to
  // Algorithms 2-4 (separation oracle, growth, rounding) must leave every
  // digit in place. The golden corpus skips randomized policies, so this
  // is their bit-level pin. gamma_override = 1 makes the alteration loop
  // fire; the paper's gamma evicts enough that it never does here.
  struct Pin {
    const char* label;
    Instance inst;
    double gamma_override;
    std::uint64_t seed;
    const char* cost;
    const char* fractional;
    const char* structured;
    const char* dual;
    long long alterations;
  };
  const BlockMap blocks = BlockMap::contiguous(64, 4);
  const Instance blocklocal{
      blocks, block_local_trace(blocks, 1000, 0.75, 0.9, Xoshiro256pp(131)),
      12};
  Xoshiro256pp rng(132);
  auto costs = log_uniform_costs(16, 16.0, rng);
  const Instance weighted = make_weighted_instance(
      48, 3, 6, zipf_trace(48, 800, 0.9, rng.substream(1)), std::move(costs));
  const Pin pins[] = {
      {"blocklocal", blocklocal, 0, 2, "291", "206.12947423079376",
       "676.74391386223601", "51.612053654708518", 0},
      {"weighted zipf", weighted, 0, 3, "2789.6675618446848",
       "2009.1099112490772", "5199.5769438862553", "661.9771331307976", 0},
      {"blocklocal, gamma 1", blocklocal, 1.0, 3, "199",
       "206.12947423079376", "676.74391386223601", "51.612053654708518", 3},
  };
  for (const Pin& pin : pins) {
    RandomizedBlockAware::Options options;
    options.gamma_override = pin.gamma_override;
    RandomizedBlockAware alg(options);
    SimOptions opt;
    opt.seed = pin.seed;
    const RunResult r = simulate(pin.inst, alg, opt);
    EXPECT_EQ(g17(r.eviction_cost), pin.cost) << pin.label;
    EXPECT_EQ(g17(alg.fractional_cost()), pin.fractional) << pin.label;
    EXPECT_EQ(g17(alg.structured_cost()), pin.structured) << pin.label;
    EXPECT_EQ(g17(alg.dual_objective()), pin.dual) << pin.label;
    EXPECT_EQ(alg.alterations(), pin.alterations) << pin.label;
    EXPECT_EQ(alg.fallback_alterations(), 0) << pin.label;
  }
}

}  // namespace
}  // namespace bac
