// Round-trip tests for the instance text format.
#include <gtest/gtest.h>

#include <sstream>

#include "trace/generators.hpp"
#include "trace/trace_io.hpp"

namespace bac {
namespace {

TEST(TraceIo, RoundTripsContiguousInstance) {
  Instance inst = make_instance(8, 3, 4, {0, 5, 2, 7, 0, 1});
  std::stringstream ss;
  save_instance(inst, ss);
  const Instance back = load_instance(ss);
  EXPECT_EQ(back.n_pages(), inst.n_pages());
  EXPECT_EQ(back.k, inst.k);
  EXPECT_EQ(back.requests, inst.requests);
  EXPECT_EQ(back.blocks.n_blocks(), inst.blocks.n_blocks());
  for (PageId p = 0; p < inst.n_pages(); ++p)
    EXPECT_EQ(back.blocks.block_of(p), inst.blocks.block_of(p));
}

TEST(TraceIo, RoundTripsWeightedCosts) {
  Instance inst =
      make_weighted_instance(6, 2, 3, {0, 1, 2, 3, 4, 5}, {1.5, 2.0, 8.0});
  std::stringstream ss;
  save_instance(inst, ss);
  const Instance back = load_instance(ss);
  for (BlockId b = 0; b < 3; ++b)
    EXPECT_DOUBLE_EQ(back.blocks.cost(b), inst.blocks.cost(b));
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream ss("not-an-instance");
  EXPECT_THROW(load_instance(ss), std::runtime_error);
}

TEST(TraceIo, RejectsTruncated) {
  Instance inst = make_instance(4, 2, 2, {0, 1, 2});
  std::stringstream ss;
  save_instance(inst, ss);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(load_instance(cut), std::runtime_error);
}

std::string error_of(const std::string& text) {
  std::stringstream ss(text);
  try {
    load_instance(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

bool mentions(const std::string& message, const std::string& needle) {
  return message.find(needle) != std::string::npos;
}

TEST(TraceIo, EmptyInputNamesTheMissingHeader) {
  const std::string msg = error_of("");
  ASSERT_FALSE(msg.empty()) << "empty input must throw";
  EXPECT_TRUE(mentions(msg, "blockcache-instance")) << msg;
}

TEST(TraceIo, WrongHeaderWordIsDescriptive) {
  const std::string msg = error_of("blockcache-trace v1 n 2 k 1");
  ASSERT_FALSE(msg.empty());
  EXPECT_TRUE(mentions(msg, "blockcache-instance")) << msg;
}

TEST(TraceIo, WrongVersionRejected) {
  EXPECT_FALSE(error_of("blockcache-instance v2 n 2 k 1").empty());
}

TEST(TraceIo, NonNumericCountsRejected) {
  const std::string msg =
      error_of("blockcache-instance v1 n many k 1 blocks 1");
  ASSERT_FALSE(msg.empty());
  EXPECT_TRUE(mentions(msg, "many")) << msg;
}

TEST(TraceIo, NegativeAndZeroSizesRejected) {
  EXPECT_FALSE(error_of("blockcache-instance v1 n 0 k 1 blocks 1").empty());
  EXPECT_FALSE(error_of("blockcache-instance v1 n 4 k 0 blocks 1").empty());
  EXPECT_FALSE(error_of("blockcache-instance v1 n 4 k 2 blocks 0").empty());
}

TEST(TraceIo, OutOfRangeBlockPageRejected) {
  const std::string msg = error_of(
      "blockcache-instance v1 n 2 k 2 blocks 1 block 0 1.0 0 7 "
      "requests 0");
  ASSERT_FALSE(msg.empty());
  EXPECT_TRUE(mentions(msg, "7")) << msg;
}

TEST(TraceIo, UnassignedPageRejected) {
  const std::string msg = error_of(
      "blockcache-instance v1 n 2 k 2 blocks 1 block 0 1.0 0 requests 0");
  ASSERT_FALSE(msg.empty());
  EXPECT_TRUE(mentions(msg, "not assigned")) << msg;
}

TEST(TraceIo, DuplicatePageAssignmentRejected) {
  const std::string msg = error_of(
      "blockcache-instance v1 n 2 k 2 blocks 2 block 0 1.0 0 1 "
      "block 1 1.0 1 requests 0");
  ASSERT_FALSE(msg.empty());
  EXPECT_TRUE(mentions(msg, "assigned to blocks")) << msg;
}

TEST(TraceIo, OutOfRangeRequestPageRejected) {
  const std::string msg = error_of(
      "blockcache-instance v1 n 2 k 2 blocks 1 block 0 1.0 0 1 "
      "requests 2 0 9");
  ASSERT_FALSE(msg.empty());
  EXPECT_TRUE(mentions(msg, "9")) << msg;
  EXPECT_TRUE(mentions(msg, "outside")) << msg;
}

TEST(TraceIo, TruncatedRequestSectionCountsProgress) {
  const std::string msg = error_of(
      "blockcache-instance v1 n 2 k 2 blocks 1 block 0 1.0 0 1 "
      "requests 5 0 1 0");
  ASSERT_FALSE(msg.empty());
  EXPECT_TRUE(mentions(msg, "3 of 5")) << msg;
}

TEST(TraceIo, NonPositiveBlockCostRejected) {
  EXPECT_FALSE(
      error_of("blockcache-instance v1 n 2 k 2 blocks 1 block 0 -1.0 0 1 "
               "requests 0")
          .empty());
}

TEST(TraceIo, MissingFileNamesThePath) {
  try {
    TextTraceSource src("/nonexistent/bac_trace.txt");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_TRUE(mentions(e.what(), "/nonexistent/bac_trace.txt"));
  }
}

}  // namespace
}  // namespace bac
