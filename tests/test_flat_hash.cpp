// Unit tests for the open-addressing FlatMap (util/flat_hash.hpp):
// a 20k-operation mixed fuzz against a std::unordered_map mirror,
// rehash-under-load and erase/re-insert tombstone edge cases,
// heterogeneous string_view lookup, and the repeated-reset zero-allocation
// guarantee the CSV interner and exact-OPT layer DP rely on (mirroring the
// counting-operator-new harness in test_eviction_index.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_hash.hpp"
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

// --- basics -----------------------------------------------------------------

TEST(FlatMapTest, EmptyTable) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_EQ(m.size(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(7u), nullptr);
  EXPECT_EQ(m.count(7u), 0u);
  EXPECT_FALSE(m.erase(7u));
  EXPECT_THROW((void)m.at(7u), std::out_of_range);
  m.prefetch(m.hash(7u));  // no-op, must not crash
  m.reset();
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatMapTest, InsertFindEraseRoundTrip) {
  FlatMap<std::uint64_t, int> m;
  auto [v, inserted] = m.try_emplace(42u, 7);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*v, 7);
  auto [v2, inserted2] = m.try_emplace(42u, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 7);  // try_emplace does not overwrite
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(42u), 7);
  m.insert_or_assign(42u, 8);
  EXPECT_EQ(m.at(42u), 8);
  m[42u] = 9;
  EXPECT_EQ(m.at(42u), 9);
  EXPECT_TRUE(m.erase(42u));
  EXPECT_FALSE(m.erase(42u));
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(42u), nullptr);
}

TEST(FlatMapTest, IterationVisitsExactlyLiveEntries) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t want_keys = 0, want_vals = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    m.try_emplace(k, k * 3);
    want_keys += k;
    want_vals += k * 3;
  }
  for (std::uint64_t k = 0; k < 100; k += 2) {  // erase evens
    m.erase(k);
    want_keys -= k;
    want_vals -= k * 3;
  }
  std::uint64_t keys = 0, vals = 0;
  std::size_t n = 0;
  for (const auto& [k, v] : m) {
    keys += k;
    vals += v;
    ++n;
  }
  EXPECT_EQ(n, m.size());
  EXPECT_EQ(keys, want_keys);
  EXPECT_EQ(vals, want_vals);
}

// --- rehash and tombstone edge cases ---------------------------------------

TEST(FlatMapTest, RehashUnderLoadPreservesEntries) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  // No reserve: forces the full growth ladder 16 -> 32 -> ... while live.
  constexpr std::uint64_t kN = 10'000;
  for (std::uint64_t k = 0; k < kN; ++k) m.try_emplace(k * 2654435761u, k);
  ASSERT_EQ(m.size(), kN);
  for (std::uint64_t k = 0; k < kN; ++k) {
    const std::uint64_t* v = m.find(k * 2654435761u);
    ASSERT_NE(v, nullptr) << "lost key " << k << " across rehashes";
    EXPECT_EQ(*v, k);
  }
  EXPECT_GE(m.capacity() - m.capacity() / 8, m.size()) << "load factor > 7/8";
}

TEST(FlatMapTest, EraseReinsertChurnReusesTombstones) {
  FlatMap<std::uint64_t, int> m;
  m.reserve(64);
  const std::size_t cap = m.capacity();
  for (std::uint64_t k = 0; k < 64; ++k) m.try_emplace(k, 1);
  // Erase/re-insert the same keys far more times than the table has
  // slots: inserts must land in tombstones instead of consuming the
  // empty reserve (no growth, no unbounded probe chains).
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t k = static_cast<std::uint64_t>(round) % 64;
    EXPECT_TRUE(m.erase(k));
    EXPECT_TRUE(m.try_emplace(k, round).second);
  }
  EXPECT_EQ(m.size(), 64u);
  EXPECT_EQ(m.capacity(), cap) << "churn of resident keys must not grow";
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_EQ(m.count(k), 1u);
}

TEST(FlatMapTest, TombstoneHeavyTableStaysCorrect) {
  // Insert/erase disjoint waves so tombstones accumulate and force
  // same-capacity purging rehashes; the survivors must stay findable.
  FlatMap<std::uint64_t, int> m;
  m.reserve(128);
  std::uint64_t next = 0;
  std::vector<std::uint64_t> live;
  for (int wave = 0; wave < 200; ++wave) {
    for (int i = 0; i < 32; ++i) {
      m.try_emplace(next, wave);
      live.push_back(next);
      ++next;
    }
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(m.erase(live.front()));
      live.erase(live.begin());
    }
    ASSERT_EQ(m.size(), live.size());
  }
  for (const std::uint64_t k : live) EXPECT_EQ(m.count(k), 1u);
  EXPECT_EQ(m.count(0u), 0u);
}

// --- mirror fuzz ------------------------------------------------------------

TEST(FlatMapTest, MirrorFuzz20kOpsAgainstUnorderedMap) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> mirror;
  Xoshiro256pp rng(0xF1A7u);
  // Small key universe so ops collide constantly (the interesting cases).
  constexpr std::uint64_t kUniverse = 512;
  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t key = rng() % kUniverse;
    switch (rng() % 5) {
      case 0: {  // try_emplace
        const auto [v, inserted] = flat.try_emplace(key, key + 1);
        const auto [it, minserted] = mirror.try_emplace(key, key + 1);
        ASSERT_EQ(inserted, minserted);
        ASSERT_EQ(*v, it->second);
        break;
      }
      case 1: {  // insert_or_assign
        const std::uint64_t val = rng();
        flat.insert_or_assign(key, val);
        mirror.insert_or_assign(key, val);
        break;
      }
      case 2: {  // erase
        ASSERT_EQ(flat.erase(key), mirror.erase(key) == 1);
        break;
      }
      case 3: {  // find
        const std::uint64_t* v = flat.find(key);
        const auto it = mirror.find(key);
        ASSERT_EQ(v != nullptr, it != mirror.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 4: {  // occasional reset, both sides
        if (rng() % 97 == 0) {
          flat.reset();
          mirror.clear();
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), mirror.size());
  }
  // Final full-content sweep, both directions.
  for (const auto& [k, v] : mirror) {
    const std::uint64_t* fv = flat.find(k);
    ASSERT_NE(fv, nullptr);
    ASSERT_EQ(*fv, v);
  }
  for (const auto& [k, v] : flat) {
    const auto it = mirror.find(k);
    ASSERT_NE(it, mirror.end());
    ASSERT_EQ(it->second, v);
  }
}

// --- heterogeneous string lookup -------------------------------------------

TEST(FlatMapTest, HeterogeneousStringViewLookup) {
  FlatMap<std::string, int> m;
  std::string key_storage = "obj:12345";
  const std::string_view sv = key_storage;
  // Insert through a view: the std::string is constructed once, on insert.
  EXPECT_TRUE(m.try_emplace(sv, 1).second);
  EXPECT_FALSE(m.try_emplace(sv, 2).second);
  EXPECT_EQ(m.size(), 1u);
  // Lookups through view, literal, and owning string all hit.
  EXPECT_NE(m.find(std::string_view("obj:12345")), nullptr);
  EXPECT_NE(m.find(std::string("obj:12345")), nullptr);
  EXPECT_EQ(m.at(sv), 1);
  EXPECT_EQ(m.count(std::string_view("obj:99999")), 0u);
  // The split probe (hash once, find later) agrees with plain find.
  const std::uint64_t h = m.hash(sv);
  m.prefetch(h);
  EXPECT_EQ(m.find_hashed(h, sv), m.find(sv));
  EXPECT_TRUE(m.erase(std::string_view("obj:12345")));
  EXPECT_EQ(m.size(), 0u);
}

TEST(FlatMapTest, StringMirrorFuzz) {
  FlatMap<std::string, int> flat;
  std::unordered_map<std::string, int> mirror;
  Xoshiro256pp rng(0x5712u);
  for (int op = 0; op < 5'000; ++op) {
    std::string key = "k";  // built via += to dodge a GCC 12 -Wrestrict
    key += std::to_string(rng() % 300);
    const std::string_view sv = key;
    if (rng() % 3 == 0) {
      ASSERT_EQ(flat.erase(sv), mirror.erase(key) == 1);
    } else {
      const auto [v, inserted] = flat.try_emplace(sv, static_cast<int>(op));
      const auto [it, minserted] = mirror.try_emplace(key, static_cast<int>(op));
      ASSERT_EQ(inserted, minserted);
      ASSERT_EQ(*v, it->second);
    }
    ASSERT_EQ(flat.size(), mirror.size());
  }
  for (const auto& [k, v] : mirror) {
    const int* fv = flat.find(std::string_view(k));
    ASSERT_NE(fv, nullptr);
    ASSERT_EQ(*fv, v);
  }
}

// --- reset-reuse allocation contract ---------------------------------------

TEST(FlatMapTest, ResetReuseAllocatesNothing) {
  FlatMap<std::uint64_t, double> m;
  m.reserve(1024);
  // Warm-up round establishes steady-state capacity.
  for (std::uint64_t k = 0; k < 1024; ++k) m.try_emplace(k * 7919u, 0.5);
  ASSERT_EQ(m.size(), 1024u);

  const long long before = g_allocations.load();
  for (int round = 0; round < 10; ++round) {
    m.reset();
    for (std::uint64_t k = 0; k < 1024; ++k) {
      m.try_emplace(k * 7919u, static_cast<double>(round));
    }
    // Erase/re-insert churn inside the round must also stay free:
    // tombstones are reused, not grown around.
    for (std::uint64_t k = 0; k < 64; ++k) {
      m.erase(k * 7919u);
      m.try_emplace(k * 7919u, 1.0);
    }
    std::uint64_t live = 0;
    for (const auto& [key, val] : m) {
      (void)key;
      (void)val;
      ++live;
    }
    ASSERT_EQ(live, 1024u);
  }
  EXPECT_EQ(g_allocations.load(), before)
      << "reset()/refill at steady-state size must not allocate";
}

TEST(FlatMapTest, SwapAndPingPongReuse) {
  // The exact-OPT layer DP ping-pongs two layers via swap + reset; after
  // both sides reach steady-state capacity the cycle is allocation-free.
  FlatMap<std::uint64_t, double> layer, next;
  layer.reserve(256);
  next.reserve(256);
  for (std::uint64_t k = 0; k < 256; ++k) layer.try_emplace(k, 0.0);
  for (std::uint64_t k = 0; k < 256; ++k) next.try_emplace(k, 0.0);

  const long long before = g_allocations.load();
  for (int step = 0; step < 20; ++step) {
    next.reset();
    for (const auto& [mask, cost] : layer) next.try_emplace(mask ^ 1u, cost + 1.0);
    layer.swap(next);
    ASSERT_EQ(layer.size(), 256u);
  }
  EXPECT_EQ(g_allocations.load(), before);
}

}  // namespace
}  // namespace bac
