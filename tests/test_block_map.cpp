// Unit tests for BlockMap: construction, layout, costs, validation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/block_map.hpp"
#include "core/instance.hpp"

namespace bac {
namespace {

TEST(BlockMap, ContiguousLayout) {
  const BlockMap m = BlockMap::contiguous(10, 4);
  EXPECT_EQ(m.n_pages(), 10);
  EXPECT_EQ(m.n_blocks(), 3);
  EXPECT_EQ(m.beta(), 4);
  EXPECT_EQ(m.block_of(0), 0);
  EXPECT_EQ(m.block_of(3), 0);
  EXPECT_EQ(m.block_of(4), 1);
  EXPECT_EQ(m.block_of(9), 2);
  EXPECT_EQ(m.block_size(2), 2);  // last block is partial
  const auto pages = m.pages_in(1);
  ASSERT_EQ(pages.size(), 4u);
  EXPECT_EQ(pages[0], 4);
  EXPECT_EQ(pages[3], 7);
}

TEST(BlockMap, CustomAssignmentGroupsPages) {
  // Interleaved assignment: evens to block 0, odds to block 1.
  std::vector<BlockId> assign{0, 1, 0, 1, 0, 1};
  const BlockMap m(std::move(assign), {2.0, 5.0});
  EXPECT_EQ(m.n_blocks(), 2);
  EXPECT_EQ(m.beta(), 3);
  const auto evens = m.pages_in(0);
  ASSERT_EQ(evens.size(), 3u);
  EXPECT_EQ(evens[0], 0);
  EXPECT_EQ(evens[1], 2);
  EXPECT_EQ(evens[2], 4);
  EXPECT_DOUBLE_EQ(m.cost(1), 5.0);
}

TEST(BlockMap, AspectRatio) {
  const BlockMap m = BlockMap::contiguous_weighted(6, 2, {1.0, 4.0, 2.0});
  EXPECT_DOUBLE_EQ(m.aspect_ratio(), 4.0);
  EXPECT_DOUBLE_EQ(m.min_cost(), 1.0);
  EXPECT_DOUBLE_EQ(m.max_cost(), 4.0);
}

TEST(BlockMap, RejectsBadInput) {
  EXPECT_THROW(BlockMap({0, 1}, {1.0}), std::invalid_argument);  // bad id
  EXPECT_THROW(BlockMap({0}, {0.0}), std::invalid_argument);     // zero cost
  EXPECT_THROW(BlockMap({0}, {-1.0}), std::invalid_argument);
  EXPECT_THROW(BlockMap::contiguous(0, 4), std::invalid_argument);
  EXPECT_THROW(BlockMap::contiguous_weighted(10, 4, {1.0}),
               std::invalid_argument);  // wrong cost count
}

TEST(BlockMap, CopiesShareStructureInConstantSpace) {
  // Regression: KOverride (k-sweeps over one trace file) and the sharded
  // server headers used to deep-copy the BlockMap per cell/shard; copies
  // now share one immutable Data block.
  const BlockMap m = BlockMap::contiguous(1000, 8);
  const BlockMap copy = m;            // O(1), shares structure
  EXPECT_TRUE(copy.shares_structure(m));
  EXPECT_EQ(copy.pages_in(3).data(), m.pages_in(3).data())
      << "copies must reference the same physical page arrays";

  // An Instance header built from the copy still shares it.
  const Instance header{copy, {}, 64};
  EXPECT_TRUE(header.blocks.shares_structure(m));

  // Independently constructed identical maps do NOT share (structural
  // sharing is identity-based, not value-based).
  const BlockMap other = BlockMap::contiguous(1000, 8);
  EXPECT_FALSE(other.shares_structure(m));
}

TEST(BlockMap, SingletonBlocksAreWeightedPaging) {
  const BlockMap m = BlockMap::contiguous(5, 1);
  EXPECT_EQ(m.n_blocks(), 5);
  EXPECT_EQ(m.beta(), 1);
  for (PageId p = 0; p < 5; ++p) EXPECT_EQ(m.block_of(p), p);
}

}  // namespace
}  // namespace bac
