// Unit tests for the flat eviction-index primitives (IntrusiveOrderList,
// LazyMinHeap): ordering and tie-breaking vs std::set, lazy-deletion edge
// cases (erase-head, stale-pop, epoch wrap, reset reuse), and the
// repeated-reset allocation guarantee of each primitive. The policies'
// own guarantee is tested in test_policies.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "core/eviction_index.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

// --- allocation counting ----------------------------------------------------
// This binary's global operator new counts allocations, so tests can
// assert that a code region allocates nothing. The counter is the only
// addition; storage still comes from malloc.

namespace {
std::atomic<long long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bac {
namespace {

// --- IntrusiveOrderList -----------------------------------------------------

TEST(IntrusiveOrderListTest, FifoOrder) {
  IntrusiveOrderList list;
  list.reset(8);
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.front(), IntrusiveOrderList::kNone);
  EXPECT_EQ(list.pop_front(), IntrusiveOrderList::kNone);
  for (int id : {3, 1, 5, 0}) list.push_back(id);
  EXPECT_EQ(list.size(), 4);
  EXPECT_TRUE(list.contains(5));
  EXPECT_FALSE(list.contains(2));
  EXPECT_EQ(list.pop_front(), 3);
  EXPECT_EQ(list.pop_front(), 1);
  EXPECT_EQ(list.pop_front(), 5);
  EXPECT_EQ(list.pop_front(), 0);
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveOrderListTest, EraseHeadMiddleTail) {
  IntrusiveOrderList list;
  list.reset(8);
  for (int id = 0; id < 5; ++id) list.push_back(id);
  list.erase(0);  // head
  list.erase(2);  // middle
  list.erase(4);  // tail
  EXPECT_EQ(list.size(), 2);
  EXPECT_EQ(list.pop_front(), 1);
  EXPECT_EQ(list.pop_front(), 3);
  // Erased ids can be re-inserted (land at the back).
  list.push_back(2);
  list.push_back(0);
  EXPECT_EQ(list.pop_front(), 2);
  EXPECT_EQ(list.pop_front(), 0);
}

TEST(IntrusiveOrderListTest, ResetDropsStateAndKeepsStorage) {
  IntrusiveOrderList list;
  list.reset(64);
  for (int id = 0; id < 64; ++id) list.push_back(id);
  list.reset(64);
  EXPECT_TRUE(list.empty());
  for (int id = 0; id < 64; ++id) EXPECT_FALSE(list.contains(id));
  const long long before = g_allocations.load();
  for (int round = 0; round < 10; ++round) {
    list.reset(64);
    for (int id = 0; id < 64; ++id) list.push_back(id);
    for (int id = 0; id < 64; id += 2) list.erase(id);
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "reset()+reuse at a fixed size must not allocate";
}

// --- LazyMinHeap ------------------------------------------------------------

TEST(LazyMinHeapTest, PopsMinWithIdTieBreak) {
  LazyMinHeap<long long> heap;
  heap.reset(8);
  // Equal keys: std::set<std::pair> order means smallest id first.
  heap.push(5, 7);
  heap.push(2, 7);
  heap.push(7, 3);
  heap.push(0, 9);
  std::int32_t id = -1;
  long long key = 0;
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 7);
  EXPECT_EQ(key, 3);
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 2);  // tie at key 7 -> smaller id
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 5);
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 0);
  EXPECT_FALSE(heap.pop(id, key));
}

TEST(LazyMinHeapTest, MaxHeapViaGreaterMatchesSetRbegin) {
  LazyMinHeap<Time, std::greater<std::pair<Time, PageId>>> heap;
  heap.reset(8);
  // Belady's "never again" sentinel ties: rbegin() = largest id.
  heap.push(1, 100);
  heap.push(6, 1 << 30);
  heap.push(3, 1 << 30);
  heap.push(2, 500);
  std::int32_t id = -1;
  Time key = 0;
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 6);  // tie at sentinel -> larger id pops first
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 3);
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 2);
}

TEST(LazyMinHeapTest, UpdateStrandsStaleEntriesAndPopSkipsThem) {
  LazyMinHeap<long long> heap;
  heap.reset(4);
  heap.push(0, 1);
  heap.push(1, 2);
  for (long long k = 3; k < 20; ++k) heap.update(0, k);  // 17 stale entries
  EXPECT_EQ(heap.size(), 2);
  EXPECT_GT(heap.entry_count(), 2u);
  std::int32_t id = -1;
  long long key = 0;
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 1);  // 0's stale key-1 entry must not win
  EXPECT_EQ(key, 2);
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 0);
  EXPECT_EQ(key, 19);
  EXPECT_FALSE(heap.pop(id, key));
}

TEST(LazyMinHeapTest, EraseThenReinsert) {
  LazyMinHeap<long long> heap;
  heap.reset(4);
  heap.push(0, 1);
  heap.push(1, 5);
  heap.erase(0);
  EXPECT_FALSE(heap.contains(0));
  EXPECT_EQ(heap.size(), 1);
  heap.push(0, 9);  // the old key-1 entry is stale, not resurrected
  std::int32_t id = -1;
  long long key = 0;
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 1);
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 0);
  EXPECT_EQ(key, 9);
}

TEST(LazyMinHeapTest, CompactDropsStaleEntriesOnly) {
  LazyMinHeap<long long> heap;
  heap.reset(16);
  for (int id = 0; id < 16; ++id) heap.push(id, 100 - id);
  for (int id = 0; id < 16; id += 2) heap.update(id, id);
  heap.compact();
  EXPECT_EQ(heap.entry_count(), 16u);
  EXPECT_EQ(heap.size(), 16);
  std::int32_t id = -1;
  long long key = 0;
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 0);  // updated to key 0, the new minimum
  EXPECT_EQ(key, 0);
}

TEST(LazyMinHeapTest, EpochWrapCompactsAwayAliasingCandidates) {
  LazyMinHeap<long long> heap;
  heap.reset(4);
  heap.push(1, 50);
  // Park id 0 one bump short of the wrap (only legal on an id that is
  // not in the heap), then run it through push/update/pop cycles that
  // cross epoch 0. The wrap triggers a compaction, so the pre-wrap entry
  // cannot alias a post-wrap stamp.
  heap.debug_set_epoch(0, std::numeric_limits<std::uint32_t>::max() - 1);
  heap.push(0, 10);
  heap.update(0, 20);  // bump to max (no wrap yet)
  EXPECT_EQ(heap.debug_epoch(0), std::numeric_limits<std::uint32_t>::max());
  heap.update(0, 30);  // bump wraps to 0 -> compact() first
  EXPECT_EQ(heap.debug_epoch(0), 0u);
  EXPECT_EQ(heap.size(), 2);
  std::int32_t id = -1;
  long long key = 0;
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 0);
  EXPECT_EQ(key, 30);  // the stale key-10/key-20 entries did not alias
  ASSERT_TRUE(heap.pop(id, key));
  EXPECT_EQ(id, 1);
  EXPECT_FALSE(heap.pop(id, key));
}

TEST(LazyMinHeapTest, MirrorsStdSetOverRandomOperations) {
  LazyMinHeap<long long> heap;
  std::set<std::pair<long long, std::int32_t>> ref;
  std::vector<long long> key_of(64, -1);  // -1 = absent
  heap.reset(64);
  Xoshiro256pp rng(7);
  for (int step = 0; step < 20000; ++step) {
    const auto id = static_cast<std::int32_t>(rng.below(64));
    const auto op = rng.below(4);
    if (key_of[static_cast<std::size_t>(id)] < 0) {
      const auto key = static_cast<long long>(rng.below(50));
      heap.push(id, key);
      ref.insert({key, id});
      key_of[static_cast<std::size_t>(id)] = key;
    } else if (op == 0) {
      const auto key = static_cast<long long>(rng.below(50));
      heap.update(id, key);
      ref.erase({key_of[static_cast<std::size_t>(id)], id});
      ref.insert({key, id});
      key_of[static_cast<std::size_t>(id)] = key;
    } else if (op == 1) {
      heap.erase(id);
      ref.erase({key_of[static_cast<std::size_t>(id)], id});
      key_of[static_cast<std::size_t>(id)] = -1;
    } else if (!ref.empty()) {
      std::int32_t got = -1;
      long long got_key = 0;
      ASSERT_TRUE(heap.pop(got, got_key));
      const auto expect = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(got_key, expect.first) << "at step " << step;
      ASSERT_EQ(got, expect.second) << "at step " << step;
      key_of[static_cast<std::size_t>(got)] = -1;
    }
    ASSERT_EQ(heap.size(), static_cast<int>(ref.size()));
  }
}

// --- SegmentedFifo ----------------------------------------------------------

TEST(SegmentedFifoTest, PerSegmentFifoOrder) {
  SegmentedFifo q;
  q.reset(8, 2);
  EXPECT_EQ(q.front(0), SegmentedFifo::kNone);
  EXPECT_EQ(q.pop_front(1), SegmentedFifo::kNone);
  for (int id : {3, 1, 5}) q.push_back(0, id);
  q.push_back(1, 7);
  EXPECT_EQ(q.size(0), 3);
  EXPECT_EQ(q.size(1), 1);
  EXPECT_EQ(q.segment_of(5), 0);
  EXPECT_EQ(q.segment_of(7), 1);
  EXPECT_EQ(q.segment_of(2), SegmentedFifo::kNone);
  EXPECT_EQ(q.pop_front(0), 3);
  EXPECT_EQ(q.pop_front(0), 1);
  EXPECT_EQ(q.pop_front(0), 5);
  EXPECT_EQ(q.pop_front(0), SegmentedFifo::kNone);
  EXPECT_EQ(q.pop_front(1), 7);
}

TEST(SegmentedFifoTest, PromoteDemoteKeepsBothOrders) {
  SegmentedFifo q;
  q.reset(8, 2);
  for (int id = 0; id < 5; ++id) q.push_back(0, id);
  q.move_back(1, 1);  // promote 1: segment 0 keeps 0,2,3,4
  q.move_back(3, 1);  // promote 3: segment 1 holds 1,3
  EXPECT_EQ(q.segment_of(1), 1);
  EXPECT_EQ(q.size(0), 3);
  EXPECT_EQ(q.size(1), 2);
  // A same-segment move_back is the FIFO reinsert (second chance).
  q.move_back(0, 0);  // segment 0 now 2,3?,no: 2,4,0
  EXPECT_EQ(q.pop_front(0), 2);
  EXPECT_EQ(q.pop_front(0), 4);
  EXPECT_EQ(q.pop_front(0), 0);
  EXPECT_EQ(q.pop_front(1), 1);
  EXPECT_EQ(q.pop_front(1), 3);
  // Erase from the middle of a segment.
  q.push_back(0, 6);
  q.push_back(0, 7);
  q.erase(6);
  EXPECT_FALSE(q.contains(6));
  EXPECT_EQ(q.pop_front(0), 7);
}

TEST(SegmentedFifoTest, ResetReusesStorage) {
  SegmentedFifo q;
  q.reset(64, 3);
  for (int id = 0; id < 64; ++id) q.push_back(id % 3, id);
  q.reset(64, 3);  // warm: same shape
  const long long before = g_allocations.load();
  for (int round = 0; round < 5; ++round) {
    q.reset(64, 3);
    for (int id = 0; id < 64; ++id) q.push_back(id % 3, id);
    for (int id = 0; id < 64; id += 2) q.move_back(id, (id + 1) % 3);
    while (q.size(0) > 0) q.pop_front(0);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

// --- GhostTable -------------------------------------------------------------

TEST(GhostTableTest, RemembersMostRecentCapacityIds) {
  GhostTable g;
  g.reset(16, 3);
  EXPECT_EQ(g.insert(1), GhostTable::kNone);
  EXPECT_EQ(g.insert(2), GhostTable::kNone);
  EXPECT_EQ(g.insert(3), GhostTable::kNone);
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.insert(4), 1);  // oldest dropped, reported
  EXPECT_FALSE(g.contains(1));
  EXPECT_TRUE(g.contains(2));
  EXPECT_EQ(g.front(), 2);
  // Reinserting a remembered id re-stamps it as most recent, no drop.
  const std::uint64_t stamp2 = g.stamp_of(2);
  EXPECT_EQ(g.insert(2), GhostTable::kNone);
  EXPECT_GT(g.stamp_of(2), stamp2);
  EXPECT_EQ(g.front(), 3);   // 2 moved to the back
  EXPECT_EQ(g.insert(5), 3);  // now 3 is the oldest
}

TEST(GhostTableTest, EraseAndPopFront) {
  GhostTable g;
  g.reset(8, 4);
  g.insert(0);
  g.insert(1);
  g.insert(2);
  g.erase(1);
  EXPECT_FALSE(g.contains(1));
  EXPECT_EQ(g.size(), 2);
  g.erase(1);  // erasing an absent id is a no-op
  EXPECT_EQ(g.pop_front(), 0);
  EXPECT_EQ(g.pop_front(), 2);
  EXPECT_EQ(g.pop_front(), GhostTable::kNone);
}

TEST(GhostTableTest, ZeroCapacityRemembersNothing) {
  GhostTable g;
  g.reset(4, 0);
  EXPECT_EQ(g.insert(1), GhostTable::kNone);
  EXPECT_FALSE(g.contains(1));
  EXPECT_EQ(g.size(), 0);
}

TEST(GhostTableTest, InsertAllocatesNothingAfterReset) {
  GhostTable g;
  g.reset(32, 8);
  const long long before = g_allocations.load();
  for (int round = 0; round < 4; ++round) {
    g.reset(32, 8);
    for (int id = 0; id < 32; ++id) g.insert(id);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

// --- PageMeta ---------------------------------------------------------------

TEST(PageMetaTest, ResetFillsAndIndexes) {
  PageMeta<int> meta;
  meta.reset(4, 7);
  EXPECT_EQ(meta.size(), 4);
  EXPECT_EQ(meta[0], 7);
  meta[2] = 42;
  EXPECT_EQ(meta[2], 42);
  meta.reset(4);  // default init
  EXPECT_EQ(meta[2], 0);
  const long long before = g_allocations.load();
  meta.reset(4, 1);  // same shape: storage reused
  EXPECT_EQ(g_allocations.load(), before);
}

}  // namespace
}  // namespace bac
