// Tests for the workload generators: ranges, determinism, and the
// distributional shapes the benchmarks rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/generators.hpp"

namespace bac {
namespace {

TEST(Generators, UniformCoversRangeDeterministically) {
  const auto a = uniform_trace(10, 1000, Xoshiro256pp(5));
  const auto b = uniform_trace(10, 1000, Xoshiro256pp(5));
  EXPECT_EQ(a, b) << "same seed, same trace";
  std::vector<int> counts(10, 0);
  for (PageId p : a) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 10);
    ++counts[static_cast<std::size_t>(p)];
  }
  for (int c : counts) EXPECT_GT(c, 50);
}

TEST(Generators, ZipfSkewsTowardLowIds) {
  const auto t = zipf_trace(100, 20'000, 1.1, Xoshiro256pp(7));
  std::vector<int> counts(100, 0);
  for (PageId p : t) ++counts[static_cast<std::size_t>(p)];
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Generators, ZipfAlphaZeroIsUniformish) {
  const auto t = zipf_trace(10, 20'000, 0.0, Xoshiro256pp(9));
  std::vector<int> counts(10, 0);
  for (PageId p : t) ++counts[static_cast<std::size_t>(p)];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LT(static_cast<double>(*hi) / *lo, 1.3);
}

TEST(Generators, ScanCycles) {
  const auto t = scan_trace(4, 10);
  const std::vector<PageId> want{0, 1, 2, 3, 0, 1, 2, 3, 0, 1};
  EXPECT_EQ(t, want);
}

TEST(Generators, PhasedStaysInWorkingSet) {
  const Time phase = 50;
  const auto t = phased_trace(100, 400, phase, 8, Xoshiro256pp(3));
  for (Time start = 0; start < 400; start += phase) {
    std::vector<PageId> distinct;
    for (Time i = start; i < start + phase; ++i) {
      const PageId p = t[static_cast<std::size_t>(i)];
      if (std::find(distinct.begin(), distinct.end(), p) == distinct.end())
        distinct.push_back(p);
    }
    EXPECT_LE(distinct.size(), 8u);
  }
}

TEST(Generators, PhasedRejectsNonPositivePhaseLen) {
  // Regression: phase_len <= 0 used to reach t % phase_len — integer
  // division by zero (UB) — instead of failing loudly.
  EXPECT_THROW(phased_trace(100, 400, 0, 8, Xoshiro256pp(3)),
               std::invalid_argument);
  EXPECT_THROW(phased_trace(100, 400, -5, 8, Xoshiro256pp(3)),
               std::invalid_argument);
}

TEST(Generators, PhasedRejectsNonPositiveWorkingSet) {
  // Regression: ws_size <= 0 used to index an empty working set.
  EXPECT_THROW(phased_trace(100, 400, 50, 0, Xoshiro256pp(3)),
               std::invalid_argument);
  EXPECT_THROW(phased_trace(100, 400, 50, -1, Xoshiro256pp(3)),
               std::invalid_argument);
  EXPECT_THROW(phased_trace(0, 400, 50, 8, Xoshiro256pp(3)),
               std::invalid_argument);
  // ws_size > n_pages still clamps rather than throwing.
  const auto t = phased_trace(4, 40, 10, 99, Xoshiro256pp(3));
  EXPECT_EQ(t.size(), 40u);
}

TEST(Generators, UniformRejectsEmptyUniverse) {
  EXPECT_THROW(uniform_trace(0, 10, Xoshiro256pp(1)), std::invalid_argument);
}

TEST(Generators, ScanRejectsEmptyUniverse) {
  // Regression: scan_trace(0, T) computed t % 0, an integer division by
  // zero that killed the process with SIGFPE.
  EXPECT_THROW(scan_trace(0, 5), std::invalid_argument);
}

TEST(Generators, EveryTraceRejectsNegativeHorizon) {
  // Regression: T = -1 used to surface as std::length_error from sizing
  // the output vector.
  const Xoshiro256pp rng(1);
  EXPECT_THROW(uniform_trace(8, -1, rng), std::invalid_argument);
  EXPECT_THROW(zipf_trace(8, -1, 0.9, rng), std::invalid_argument);
  EXPECT_THROW(scan_trace(8, -1), std::invalid_argument);
  EXPECT_THROW(phased_trace(8, -1, 4, 2, rng), std::invalid_argument);
  EXPECT_THROW(block_local_trace(BlockMap::contiguous(8, 2), -1, 0.75, 0.9,
                                 rng),
               std::invalid_argument);
}

TEST(Generators, BlockLocalMostlyStays) {
  const BlockMap blocks = BlockMap::contiguous(64, 8);
  const auto t = block_local_trace(blocks, 10'000, 0.9, 0.8, Xoshiro256pp(1));
  int switches = 0;
  for (std::size_t i = 1; i < t.size(); ++i)
    if (blocks.block_of(t[i]) != blocks.block_of(t[i - 1])) ++switches;
  // With stay = 0.9, block switches happen on ~10% of steps (plus the
  // chance a redraw lands on the same block).
  EXPECT_LT(switches, 1500);
  EXPECT_GT(switches, 300);
}

TEST(Generators, LogUniformCostsRespectAspectRatio) {
  const auto costs = log_uniform_costs(1000, 16.0, Xoshiro256pp(2));
  for (Cost c : costs) {
    ASSERT_GE(c, 1.0 - 1e-9);
    ASSERT_LE(c, 16.0 + 1e-9);
  }
  const double hi =
      static_cast<double>(std::count_if(costs.begin(), costs.end(),
                                        [](Cost c) { return c > 4.0; }));
  EXPECT_NEAR(hi / 1000, 0.5, 0.1) << "log-uniform: half the mass above sqrt";
}

TEST(Generators, MakeInstanceValidates) {
  EXPECT_NO_THROW(make_instance(8, 2, 4, {0, 1, 2}));
  EXPECT_THROW(make_instance(8, 2, 1, {0}), std::invalid_argument);  // beta>k
  EXPECT_NO_THROW(
      make_weighted_instance(4, 2, 2, {0, 3}, {1.0, 2.0}));
  EXPECT_THROW(make_weighted_instance(4, 2, 2, {0}, {1.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bac
