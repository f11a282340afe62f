// Tests for the sparse fractional variable store phi and the derived
// page missing-mass values x (paper equation (3.2)), and for its per-block
// stamps (equal stamps mean equal entries, across objects and copies).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "submodular/flush_vars.hpp"

namespace bac {
namespace {

TEST(FlushVars, GetAndIncrease) {
  FlushVars v(2);
  EXPECT_DOUBLE_EQ(v.get(0, 5), 0.0);
  v.increase(0, 5, 0.25);
  v.increase(0, 5, 0.25);
  EXPECT_DOUBLE_EQ(v.get(0, 5), 0.5);
  EXPECT_DOUBLE_EQ(v.get(1, 5), 0.0);
  EXPECT_THROW(v.increase(0, 5, -0.1), std::invalid_argument);
}

TEST(FlushVars, EntriesStaySortedByTime) {
  FlushVars v(1);
  v.increase(0, 7, 0.1);
  v.increase(0, 2, 0.2);
  v.increase(0, 5, 0.3);
  const auto& es = v.entries(0);
  ASSERT_EQ(es.size(), 3u);
  EXPECT_EQ(es[0].t, 2);
  EXPECT_EQ(es[1].t, 5);
  EXPECT_EQ(es[2].t, 7);
}

TEST(FlushVars, RaiseToReturnsDelta) {
  FlushVars v(1);
  v.increase(0, 3, 0.4);
  EXPECT_DOUBLE_EQ(v.raise_to(0, 3, 1.0), 0.6);
  EXPECT_DOUBLE_EQ(v.raise_to(0, 3, 0.5), 0.0);  // never decreases
  EXPECT_DOUBLE_EQ(v.get(0, 3), 1.0);
}

TEST(FlushVars, TotalCostSkipsTimeZero) {
  const BlockMap blocks = BlockMap::contiguous_weighted(4, 2, {2.0, 3.0});
  FlushVars v(2);
  v.increase(0, 0, 1.0);  // free initial flush
  v.increase(0, 4, 0.5);
  v.increase(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(v.total_cost(blocks), 2.0 * 0.5 + 3.0 * 1.0);
}

TEST(FlushVars, MassAfter) {
  FlushVars v(1);
  v.increase(0, 1, 0.1);
  v.increase(0, 3, 0.2);
  v.increase(0, 6, 0.4);
  EXPECT_DOUBLE_EQ(v.mass_after(0, 0), 0.7);
  EXPECT_DOUBLE_EQ(v.mass_after(0, 1), 0.6);
  EXPECT_DOUBLE_EQ(v.mass_after(0, 3), 0.4);
  EXPECT_DOUBLE_EQ(v.mass_after(0, 6), 0.0);
}

TEST(FlushVars, XValueFollowsDefinition) {
  const BlockMap blocks = BlockMap::contiguous(4, 2);
  FlushCoverage cov(blocks, 2);
  FlushVars v(2);
  // Page 2 (block 1) never requested: x = 1 regardless of phi.
  cov.advance(0, 1);
  EXPECT_DOUBLE_EQ(v.x_value(cov, 2), 1.0);
  // Page 0 requested at 1: x = mass of block 0 after time 1, capped at 1.
  v.increase(0, 1, 0.3);  // at time 1 == r(0): not counted
  EXPECT_DOUBLE_EQ(v.x_value(cov, 0), 0.0);
  cov.advance(1, 2);
  v.increase(0, 2, 0.4);
  EXPECT_DOUBLE_EQ(v.x_value(cov, 0), 0.4);
  v.increase(0, 2, 0.9);
  EXPECT_DOUBLE_EQ(v.x_value(cov, 0), 1.0) << "x is capped at 1";
  // Page 1 requested at 2: only mass strictly after 2 counts.
  EXPECT_DOUBLE_EQ(v.x_value(cov, 1), 0.0);
}

std::vector<std::uint64_t> stamps(const FlushVars& v, int n_blocks) {
  std::vector<std::uint64_t> out;
  for (BlockId b = 0; b < n_blocks; ++b) out.push_back(v.stamp(b));
  return out;
}

TEST(FlushVarsStamp, EveryChangeStampsOnlyTheTouchedBlock) {
  FlushVars v(3);
  std::vector<std::uint64_t> before = stamps(v, 3);
  std::vector<std::uint64_t> history = before;  // every stamp seen so far
  const auto expect_fresh = [&](BlockId touched, const char* what) {
    const std::vector<std::uint64_t> now = stamps(v, 3);
    for (BlockId b = 0; b < 3; ++b) {
      const auto i = static_cast<std::size_t>(b);
      if (b == touched)
        EXPECT_EQ(std::count(history.begin(), history.end(), now[i]), 0)
            << what << ": a stamp came back";
      else
        EXPECT_EQ(now[i], before[i]) << what << ": block " << b;
    }
    history.insert(history.end(), now.begin(), now.end());
    before = now;
  };
  v.increase(1, 4, 0.25);
  expect_fresh(1, "increase inserting an entry");
  v.increase(1, 4, 0.25);
  expect_fresh(1, "increase of an existing entry");
  v.increase(1, 2, 0.5);
  expect_fresh(1, "increase inserting before an entry");
  v.raise_to(0, 4, 0.75);
  expect_fresh(0, "raise_to that raises");
  v.raise_to(2, 9, 0.1);
  expect_fresh(2, "raise_to of a new entry");
}

TEST(FlushVarsStamp, CopiesShareStampsUntilEitherChanges) {
  FlushVars v(2);
  v.increase(0, 3, 0.5);
  v.increase(1, 5, 0.25);
  FlushVars copy = v;
  EXPECT_EQ(stamps(copy, 2), stamps(v, 2));
  const std::uint64_t before = v.stamp(0);
  copy.increase(0, 3, 0.25);
  EXPECT_NE(copy.stamp(0), before);
  EXPECT_EQ(v.stamp(0), before) << "the source is untouched";
  EXPECT_EQ(copy.stamp(1), v.stamp(1));
  v.increase(0, 3, 0.25);  // the same entries as the copy's, by another path
  EXPECT_NE(v.stamp(0), before);
  EXPECT_NE(v.stamp(0), copy.stamp(0))
      << "a stamp is drawn afresh, never derived from the history";
  FlushVars assigned(1);
  assigned = v;
  EXPECT_EQ(stamps(assigned, 2), stamps(v, 2));
}

TEST(FlushVarsStamp, IndependentObjectsNeverShareAStamp) {
  // Built and changed identically, so only a process-wide draw tells
  // them apart.
  FlushVars a(4), b(4);
  for (FlushVars* v : {&a, &b}) {
    v->increase(2, 7, 0.5);
    v->raise_to(0, 1, 0.25);
  }
  std::vector<std::uint64_t> all = stamps(a, 4);
  const std::vector<std::uint64_t> sb = stamps(b, 4);
  all.insert(all.end(), sb.begin(), sb.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

}  // namespace
}  // namespace bac
