// Tests for the flush-coverage function f_tau (Section 3.1), including the
// paper's Figure 1 as a literal scenario, plus randomized submodularity /
// monotonicity property checks (Claim 3.1), and the per-block stamps
// (equal stamps mean equal sorted last requests, across objects and
// copies).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/block_map.hpp"
#include "submodular/flush_coverage.hpp"
#include "util/rng.hpp"

namespace bac {
namespace {

/// Figure 1: n = 8 pages in two blocks of 4, k = 4 (cap = 4).
/// Requests p0..p7 at times 1..8; flush (B1, 3) misses {p0, p1} (2 pages),
/// flush (B2, 8) misses {p4, p5, p6} (3 pages, not p7 which is requested at
/// 8), and together they miss 5 pages, capped at n - k = 4.
class Figure1 : public ::testing::Test {
 protected:
  Figure1() : blocks_(BlockMap::contiguous(8, 4)), cov_(blocks_, 4) {
    for (PageId p = 0; p < 8; ++p)
      cov_.advance(p, static_cast<Time>(p) + 1);
  }
  BlockMap blocks_;
  FlushCoverage cov_;
};

TEST_F(Figure1, SingleFlushValues) {
  FlushSet s1 = FlushSet::empty(cov_);
  EXPECT_EQ(s1.g(), 0);
  s1.add_flush(0, 3);  // (B1, t1 = 3)
  EXPECT_EQ(s1.g(), 2);
  EXPECT_EQ(s1.f(), 2);

  FlushSet s2 = FlushSet::empty(cov_);
  s2.add_flush(1, 8);  // (B2, t2 = 8)
  EXPECT_EQ(s2.g(), 3);
  EXPECT_EQ(s2.f(), 3);
}

TEST_F(Figure1, UnionIsCapped) {
  FlushSet s = FlushSet::empty(cov_);
  s.add_flush(0, 3);
  s.add_flush(1, 8);
  EXPECT_EQ(s.g(), 5);
  EXPECT_EQ(s.f(), 4) << "f is capped at n - k = 4";
}

TEST_F(Figure1, MarginalsMatchDifferences) {
  FlushSet s = FlushSet::empty(cov_);
  EXPECT_EQ(s.g_marginal(0, 3), 2);
  EXPECT_EQ(s.f_marginal(0, 3), 2);
  s.add_flush(0, 3);
  EXPECT_EQ(s.g_marginal(1, 8), 3);
  // capped marginal: f(S + v) - f(S) = 4 - 2 = 2.
  EXPECT_EQ(s.f_marginal(1, 8), 2);
}

TEST_F(Figure1, RequestedPageIsNeverMissing) {
  FlushSet s = FlushSet::empty(cov_);
  s.add_flush(1, 8);
  EXPECT_FALSE(s.missing(7)) << "p7 is requested at tau = 8";
  EXPECT_TRUE(s.missing(4));
}

TEST_F(Figure1, LaterFlushDominates) {
  FlushSet s = FlushSet::empty(cov_);
  s.add_flush(0, 2);  // misses only p0
  EXPECT_EQ(s.g(), 1);
  EXPECT_EQ(s.g_marginal(0, 3), 1);  // raising the flush adds p1
  s.add_flush(0, 3);
  EXPECT_EQ(s.g(), 2);
  EXPECT_EQ(s.g_marginal(0, 1), 0) << "older flush has no marginal";
}

TEST(FlushCoverage, InitialSetCoversNeverRequested) {
  const BlockMap blocks = BlockMap::contiguous(6, 2);
  FlushCoverage cov(blocks, 3);
  FlushSet s(cov);  // all blocks flushed at 0
  EXPECT_EQ(s.g(), 6) << "all pages start missing";
  EXPECT_EQ(s.f(), 3);

  // After requesting page 0, it is present; g drops by one.
  FlushSet* sets[] = {&s};
  cov.advance(0, 1, sets);
  EXPECT_EQ(s.g(), 5);
  EXPECT_FALSE(s.missing(0));
  EXPECT_TRUE(s.missing(1));
}

TEST(FlushCoverage, AdvanceKeepsCachedGConsistent) {
  const BlockMap blocks = BlockMap::contiguous(6, 3);
  FlushCoverage cov(blocks, 2);
  FlushSet s(cov);
  Xoshiro256pp rng(17);
  for (Time t = 1; t <= 40; ++t) {
    const auto p = static_cast<PageId>(rng.below(6));
    FlushSet* sets[] = {&s};
    cov.advance(p, t, sets);
    if (rng.bernoulli(0.3)) s.add_flush(static_cast<BlockId>(rng.below(2)), t);
    FlushSet fresh = s;
    fresh.recompute();
    ASSERT_EQ(s.g(), fresh.g()) << "incremental g diverged at t=" << t;
  }
}

TEST(FlushCoverage, AliveTimesAreLastRequestsPlusOne) {
  const BlockMap blocks = BlockMap::contiguous(4, 2);
  FlushCoverage cov(blocks, 2);
  cov.advance(0, 1);
  cov.advance(1, 2);
  cov.advance(0, 5);
  // Block 0 pages: 0 (last req 5), 1 (last req 2) -> alive {3, 6}.
  const auto alive0 = cov.alive_times(0);
  ASSERT_EQ(alive0.size(), 2u);
  EXPECT_EQ(alive0[0], 3);
  EXPECT_EQ(alive0[1], 6);
  // Block 1 never requested -> alive {0}.
  const auto alive1 = cov.alive_times(1);
  ASSERT_EQ(alive1.size(), 1u);
  EXPECT_EQ(alive1[0], 0);
}

TEST(FlushCoverage, CountBelow) {
  const BlockMap blocks = BlockMap::contiguous(4, 4);
  FlushCoverage cov(blocks, 2);
  cov.advance(2, 1);
  cov.advance(3, 4);
  // lastReq: [-1, -1, 1, 4]
  EXPECT_EQ(cov.count_below(0, 0), 2);   // the two never-requested
  EXPECT_EQ(cov.count_below(0, 1), 2);
  EXPECT_EQ(cov.count_below(0, 2), 3);
  EXPECT_EQ(cov.count_below(0, 5), 4);
  EXPECT_EQ(cov.count_below(0, kNeverRequested), 0);
}

TEST(FlushCoverage, RejectsNonIncreasingTime) {
  const BlockMap blocks = BlockMap::contiguous(4, 2);
  FlushCoverage cov(blocks, 2);
  cov.advance(0, 3);
  EXPECT_THROW(cov.advance(1, 3), std::invalid_argument);
  EXPECT_THROW(cov.advance(1, 2), std::invalid_argument);
}

TEST(FlushSetTest, RejectsFutureFlush) {
  const BlockMap blocks = BlockMap::contiguous(4, 2);
  FlushCoverage cov(blocks, 2);
  cov.advance(0, 3);
  FlushSet s = FlushSet::empty(cov);
  EXPECT_THROW(s.add_flush(0, 4), std::invalid_argument);
  EXPECT_NO_THROW(s.add_flush(0, 3));
}

/// Claim 3.1 property check: f_tau is monotone and submodular, verified on
/// random instances over random chains A <= B and random elements v.
TEST(FlushCoverageProperty, MonotoneAndSubmodularOnRandomInstances) {
  Xoshiro256pp rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 4 + static_cast<int>(rng.below(8));
    const int beta = 1 + static_cast<int>(rng.below(4));
    const int k = std::max(beta, 1 + static_cast<int>(rng.below(n)));
    const BlockMap blocks = BlockMap::contiguous(n, beta);
    FlushCoverage cov(blocks, k);
    const Time T = 12;
    for (Time t = 1; t <= T; ++t)
      cov.advance(static_cast<PageId>(rng.below(static_cast<std::uint64_t>(n))), t);

    // Random nested sets A subset of B, random extra element v.
    FlushSet A = FlushSet::empty(cov);
    FlushSet B = FlushSet::empty(cov);
    for (int i = 0; i < 4; ++i) {
      const auto b = static_cast<BlockId>(rng.below(
          static_cast<std::uint64_t>(blocks.n_blocks())));
      const auto t = static_cast<Time>(rng.below(T + 1));
      B.add_flush(b, t);
      if (rng.bernoulli(0.5)) A.add_flush(b, t);
    }
    ASSERT_LE(A.f(), B.f()) << "monotonicity";
    for (int i = 0; i < 6; ++i) {
      const auto b = static_cast<BlockId>(rng.below(
          static_cast<std::uint64_t>(blocks.n_blocks())));
      const auto t = static_cast<Time>(rng.below(T + 1));
      ASSERT_GE(A.f_marginal(b, t), B.f_marginal(b, t))
          << "submodularity violated (trial " << trial << ")";
    }
  }
}

std::vector<std::uint64_t> stamps(const FlushCoverage& cov) {
  std::vector<std::uint64_t> out;
  for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b)
    out.push_back(cov.stamp(b));
  return out;
}

TEST(FlushCoverageStamp, AdvanceStampsOnlyTheRequestedBlock) {
  const BlockMap blocks = BlockMap::contiguous(9, 3);
  FlushCoverage cov(blocks, 2);
  std::vector<std::uint64_t> before = stamps(cov);
  std::vector<std::uint64_t> history = before;  // every stamp seen so far
  Xoshiro256pp rng(5);
  for (Time t = 1; t <= 30; ++t) {
    const auto p = static_cast<PageId>(rng.below(9));
    cov.advance(p, t);
    const std::vector<std::uint64_t> now = stamps(cov);
    for (BlockId b = 0; b < 3; ++b) {
      const auto i = static_cast<std::size_t>(b);
      if (b == blocks.block_of(p))
        EXPECT_EQ(std::count(history.begin(), history.end(), now[i]), 0)
            << "t=" << t << ": a stamp came back";
      else
        EXPECT_EQ(now[i], before[i]) << "t=" << t << " block " << b;
    }
    history.insert(history.end(), now.begin(), now.end());
    before = now;
  }
}

TEST(FlushCoverageStamp, CopiesShareStampsUntilEitherAdvances) {
  const BlockMap blocks = BlockMap::contiguous(6, 2);
  FlushCoverage cov(blocks, 3);
  cov.advance(0, 1);
  cov.advance(3, 2);
  FlushCoverage copy = cov;
  EXPECT_EQ(stamps(copy), stamps(cov));
  const std::uint64_t before = cov.stamp(0);
  copy.advance(1, 3);
  EXPECT_NE(copy.stamp(0), before);
  EXPECT_EQ(cov.stamp(0), before) << "the source is untouched";
  cov.advance(1, 3);  // the same request, on the source
  EXPECT_NE(cov.stamp(0), before);
  EXPECT_NE(cov.stamp(0), copy.stamp(0))
      << "a stamp is drawn afresh, never derived from the history";
  EXPECT_EQ(cov.stamp(1), copy.stamp(1));
}

TEST(FlushCoverageStamp, IndependentObjectsNeverShareAStamp) {
  // Built and advanced identically, so only a process-wide draw tells
  // them apart.
  const BlockMap blocks = BlockMap::contiguous(8, 2);
  FlushCoverage a(blocks, 2), b(blocks, 2);
  for (FlushCoverage* cov : {&a, &b}) {
    cov->advance(5, 1);
    cov->advance(0, 2);
    cov->advance(5, 3);
  }
  std::vector<std::uint64_t> all = stamps(a);
  const std::vector<std::uint64_t> sb = stamps(b);
  all.insert(all.end(), sb.begin(), sb.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

}  // namespace
}  // namespace bac
