// Adversarial internals tests for the modern policy zoo (S3-FIFO, SIEVE,
// ARC, and the block-aware variants): hand-computed traces pinning the
// frozen eviction semantics, the registry's parameterized-spec grammar
// and its error messages, structural counters through export_metrics,
// quick-check equivalence against the frozen reference twins, the
// zero-allocation reset-reuse guarantee the sweep relies on, and the
// allocation-free million-request streams of Algorithm 1, of Theorem
// 4.1's two rounding modes, of every other registry policy but
// rand_online, of the sharded ConcurrentCache and of the synthetic and
// CSV decoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "algs/det_online.hpp"
#include "algs/policies/classical.hpp"
#include "algs/policies/modern.hpp"
#include "algs/threshold_bicriteria.hpp"
#include "algs/zoo.hpp"
#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/request_source.hpp"
#include "obs/metrics.hpp"
#include "server/concurrent_cache.hpp"
#include "trace/csv.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "verify/reference_policies.hpp"

#include "counting_new.hpp"

namespace bac {
namespace {

/// Replay inst.requests through the policy with simulator-grade plumbing
/// (feasibility asserted each step); the final cache state is left in
/// `cache` for inspection.
void drive(OnlinePolicy& policy, const Instance& inst, CacheSet& cache,
           CostMeter& meter) {
  cache.clear();
  CacheOps ops(inst.blocks, cache, meter, inst.k);
  policy.reset(inst);
  Time t = 0;
  for (const PageId p : inst.requests) {
    ++t;
    meter.begin_step(t);
    policy.on_request(t, p, ops);
    ASSERT_TRUE(cache.contains(p));
    ASSERT_LE(cache.size(), inst.k);
  }
}

/// Run `requests` through a fresh reset of the policy over single-page
/// blocks and return the final cached set (deterministic policies only).
std::vector<PageId> final_cache(OnlinePolicy& policy, int n_pages, int k,
                                const std::vector<PageId>& requests) {
  Instance inst{BlockMap::contiguous(n_pages, 1), requests, k};
  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  drive(policy, inst, cache, meter);
  std::vector<PageId> pages = cache.pages();
  std::sort(pages.begin(), pages.end());
  return pages;
}

std::uint64_t counter_value(const OnlinePolicy& policy,
                            const std::string& name) {
  obs::MetricRegistry registry;
  policy.export_metrics(registry);
  return registry.counter(name).value();
}

// --- SIEVE hand semantics ---------------------------------------------------

TEST(SievePolicyTest, HandWrapsAtBothEnds) {
  // k = 3, pages 1..6 in single-page blocks; every expectation below is
  // the NSDI'24 sweep computed by hand.
  SievePolicy sieve;

  // Fill 1,2,3 then hit all three: every visited bit set. The miss on 4
  // must sweep the whole list (clearing bits), wrap at the newest end
  // back to the front, and evict the oldest page 1.
  EXPECT_EQ(final_cache(sieve, 7, 3, {1, 2, 3, 1, 2, 3, 4}),
            (std::vector<PageId>{2, 3, 4}));

  // The hand parked just past the victim: after a hit on 2, the miss on
  // 5 resumes mid-list (clears 2's bit, evicts 3) instead of restarting.
  EXPECT_EQ(final_cache(sieve, 7, 3, {1, 2, 3, 1, 2, 3, 4, 2, 5}),
            (std::vector<PageId>{2, 4, 5}));

  // Hits on 2 and 4 leave 5 the only unvisited page; the miss on 6
  // evicts the *newest* page and parks the hand off the tail (kNone),
  // where the next miss must restart from the front.
  EXPECT_EQ(final_cache(sieve, 7, 3, {1, 2, 3, 1, 2, 3, 4, 2, 5, 2, 4, 6}),
            (std::vector<PageId>{2, 4, 6}));

  // Restart from the front: 2 is visited (cleared, swept past), 4 is not
  // (cleared during the previous sweep) and is evicted.
  EXPECT_EQ(
      final_cache(sieve, 7, 3, {1, 2, 3, 1, 2, 3, 4, 2, 5, 2, 4, 6, 1}),
      (std::vector<PageId>{1, 2, 6}));

  // The last run swept: hand advances were counted and exported.
  EXPECT_GT(counter_value(sieve, "policy_hand_sweeps_total"), 0u);
}

// --- S3-FIFO ghost reinsertion ----------------------------------------------

TEST(S3FifoPolicyTest, GhostHitReinsertsIntoMainAndSurvivesSmallChurn) {
  // k = 4 so small_target = max(1, 0.1*4) = 1. Page 1 is evicted from the
  // small queue, remembered by the ghost, and its re-request must land it
  // in the main queue where later one-hit wonders cannot push it out.
  S3FifoPolicy s3;
  EXPECT_EQ(final_cache(s3, 9, 4, {1, 2, 3, 4, 5, 1, 6, 7, 8}),
            (std::vector<PageId>{1, 6, 7, 8}));
  EXPECT_EQ(s3.small_target(), 1);
  EXPECT_EQ(counter_value(s3, "policy_ghost_hits_total"), 1u);
  // Page 1 entered main via the ghost, not via a small-queue promotion.
  EXPECT_EQ(counter_value(s3, "policy_small_promotions_total"), 0u);
}

TEST(S3FifoPolicyTest, FrequentSmallPageIsPromotedToMain) {
  // Page 1 is hit twice while in the small queue (freq 2 > 1), so when
  // the small front reaches it the page is promoted to main instead of
  // evicted; the one-hit wonders 2 and 3 die first.
  S3FifoPolicy s3;
  EXPECT_EQ(final_cache(s3, 9, 4, {1, 2, 3, 4, 1, 1, 5, 6, 7}),
            (std::vector<PageId>{1, 5, 6, 7}));
  EXPECT_GE(counter_value(s3, "policy_small_promotions_total"), 1u);
}

TEST(S3FifoPolicyTest, KnobShapesNameAndSmallTarget) {
  S3FifoPolicy wide(0.5);
  EXPECT_EQ(wide.name(), "S3FIFO@0.5");
  EXPECT_DOUBLE_EQ(wide.small_frac(), 0.5);
  const Instance inst{BlockMap::contiguous(16, 1), {}, 8};
  wide.reset(inst);
  EXPECT_EQ(wide.small_target(), 4);  // int(0.5 * 8)

  S3FifoPolicy dflt;
  EXPECT_EQ(dflt.name(), "S3FIFO");
  dflt.reset(inst);
  EXPECT_EQ(dflt.small_target(), 1);  // int(0.1 * 8) = 0, clamped up to 1
}

// --- ARC adaptivity ---------------------------------------------------------

TEST(ArcPolicyTest, TargetPOscillatesUnderMixedRecencyFrequencyTraffic) {
  // A zipf stream over a working set 4x the cache mixes one-hit wonders
  // (whose B1 ghost hits grow the recency target) with hot re-references
  // (whose B2 ghost hits shrink it). The adaptive target must move in
  // BOTH directions; a broken Case II/III would only ever move one way,
  // or not at all.
  const int n = 32;
  const int k = 8;
  Xoshiro256pp rng(21);
  Instance inst{BlockMap::contiguous(n, 1), zipf_trace(n, 4000, 0.9, rng),
                k};
  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  CacheOps ops(inst.blocks, cache, meter, inst.k);
  ArcPolicy arc;
  arc.reset(inst);
  EXPECT_EQ(arc.target_p(), 0);

  long long ups = 0;
  long long downs = 0;
  int prev_p = arc.target_p();
  Time t = 0;
  for (const PageId p : inst.requests) {
    ++t;
    meter.begin_step(t);
    arc.on_request(t, p, ops);
    ASSERT_TRUE(cache.contains(p));
    ASSERT_LE(cache.size(), inst.k);
    const int cur_p = arc.target_p();
    ASSERT_GE(cur_p, 0);
    ASSERT_LE(cur_p, k);
    if (cur_p > prev_p) ++ups;
    if (cur_p < prev_p) ++downs;
    prev_p = cur_p;
  }
  EXPECT_GT(ups, 0) << "B1 ghost hits never grew the recency target";
  EXPECT_GT(downs, 0) << "B2 ghost hits never shrank the recency target";
  // Every observed move is one counted adjustment; adjustments clamped at
  // the [0, c] rails move nothing but still count, hence >=.
  EXPECT_GE(counter_value(arc, "policy_arc_p_adjustments_total"),
            static_cast<std::uint64_t>(ups + downs));
  EXPECT_GT(counter_value(arc, "policy_ghost_hits_total"), 0u);
}

// --- block-aware variants ---------------------------------------------------

TEST(BlockPoliciesTest, BlockS3FifoFlushesWholeBlocks) {
  // Pages 0..11 in blocks of 4 (blocks 0,1,2), k = 8 = two block slots.
  // Touching all of blocks 0 and 1 fills the cache; the first request
  // into block 2 must flush one whole victim block in a single step.
  BlockS3FifoPolicy s3;
  Instance inst{BlockMap::contiguous(12, 4),
                {0, 1, 2, 3, 4, 5, 6, 7, 8}, 8};
  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  drive(s3, inst, cache, meter);
  // Block 0 (small-queue front, freq for its pages <= 1 at flush time)
  // was batch-flushed; block 1 and the new page of block 2 remain.
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_FALSE(cache.contains(3));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_TRUE(cache.contains(7));
  EXPECT_TRUE(cache.contains(8));
  EXPECT_EQ(counter_value(s3, "policy_block_flushes_total"), 1u);
}

TEST(BlockPoliciesTest, BlockSieveFlushesColdBlockAndKeepsVisitedOne) {
  // Pages 0..11 in blocks of 4, k = 5. Block 0's visited bit (set by its
  // in-block misses and the hit on 0) shields it; the sweep for block 2
  // batch-flushes the cold block 1 instead.
  BlockSievePolicy sieve;
  Instance inst{BlockMap::contiguous(12, 4), {0, 1, 2, 3, 4, 0, 8}, 5};
  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  drive(sieve, inst, cache, meter);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_FALSE(cache.contains(4));  // block 1 batch-flushed
  EXPECT_TRUE(cache.contains(8));
  EXPECT_EQ(counter_value(sieve, "policy_block_flushes_total"), 1u);
}

TEST(BlockPoliciesTest, BlockSieveNeverFlushesTheRequestedBlock) {
  // k = 4: serving block 1's first page overflows the cache while block 1
  // is the hand's natural victim (visited bit 0). The hand must skip the
  // requested block — without clearing its bit — wrap, and flush the now
  // swept-clean block 0 instead of the block being served.
  BlockSievePolicy sieve;
  Instance inst{BlockMap::contiguous(12, 4), {0, 1, 2, 3, 4}, 4};
  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  drive(sieve, inst, cache, meter);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(4));
  EXPECT_EQ(cache.size(), 1);
  EXPECT_EQ(counter_value(sieve, "policy_block_flushes_total"), 1u);
}

// --- registry spec grammar --------------------------------------------------

std::string thrown_message(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(PolicySpecTest, KnobbedSpecsResolve) {
  EXPECT_EQ(make_policy("s3fifo")->name(), "S3FIFO");
  EXPECT_EQ(make_policy("s3fifo@0.25")->name(), "S3FIFO@0.25");
  EXPECT_EQ(make_policy("sieve")->name(), "SIEVE");
  EXPECT_EQ(make_policy("arc")->name(), "ARC");
  EXPECT_EQ(make_policy("block_s3fifo@0.25")->name(), "BlockS3FIFO@0.25");
  EXPECT_EQ(make_policy("block_sieve")->name(), "BlockSIEVE");

  auto knobbed = make_policy("s3fifo@0.25");
  auto* s3 = dynamic_cast<S3FifoPolicy*>(knobbed.get());
  ASSERT_NE(s3, nullptr);
  EXPECT_DOUBLE_EQ(s3->small_frac(), 0.25);
}

TEST(PolicySpecTest, MalformedKnobValue) {
  const std::string empty = thrown_message([] { make_policy("s3fifo@"); });
  EXPECT_NE(empty.find("malformed knob value"), std::string::npos) << empty;
  const std::string junk =
      thrown_message([] { make_policy("s3fifo@0.5x"); });
  EXPECT_NE(junk.find("malformed knob value"), std::string::npos) << junk;
  // The grammar rides along so the error teaches the spec syntax.
  EXPECT_NE(junk.find("<name>@<value>"), std::string::npos) << junk;
}

TEST(PolicySpecTest, OutOfRangeKnobValue) {
  for (const char* spec : {"s3fifo@1.5", "s3fifo@0", "s3fifo@1",
                           "s3fifo@-0.1", "block_s3fifo@2"}) {
    const std::string msg =
        thrown_message([spec] { make_policy(spec); });
    EXPECT_NE(msg.find("out of range"), std::string::npos)
        << spec << ": " << msg;
  }
}

TEST(PolicySpecTest, KnoblessPolicyRejectsKnob) {
  const std::string msg = thrown_message([] { make_policy("lru@0.5"); });
  EXPECT_NE(msg.find("takes no knob"), std::string::npos) << msg;
}

TEST(PolicySpecTest, UnknownNameSuggestsNearest) {
  const std::string typo = thrown_message([] { make_policy("s3fifoo"); });
  EXPECT_NE(typo.find("did you mean 's3fifo'"), std::string::npos) << typo;
  // A typo'd knob spec still gets the suggestion for its name part.
  const std::string knob_typo =
      thrown_message([] { make_policy("seive@0.5"); });
  EXPECT_NE(knob_typo.find("did you mean 'sieve'"), std::string::npos)
      << knob_typo;
  // Nothing close: no suggestion, but the registry list and grammar show.
  const std::string far =
      thrown_message([] { make_policy("definitely_nothing"); });
  EXPECT_EQ(far.find("did you mean"), std::string::npos) << far;
  EXPECT_NE(far.find("known:"), std::string::npos) << far;
  EXPECT_NE(far.find("a spec is <name>"), std::string::npos) << far;
}

// --- reference-twin quick check ---------------------------------------------

TEST(ReferenceTwinsTest, ProductionMatchesFrozenTwinsOnSmallInstances) {
  // The 500-seed campaign lives in bacfuzz; this is the fast in-tree
  // version so a divergence fails unit CI before the fuzzer runs.
  Xoshiro256pp rng(21);
  const Instance zipf{BlockMap::contiguous(32, 4),
                      zipf_trace(32, 800, 0.9, rng), 8};
  const Instance scan{BlockMap::contiguous(24, 3), scan_trace(24, 300), 9};
  auto twins = verify::reference_policy_twins();
  ASSERT_GE(twins.size(), 16u);
  for (auto& [spec, twin] : twins) {
    auto production = make_policy(spec);
    for (const Instance* inst : {&zipf, &scan}) {
      const std::vector<std::string> diffs =
          verify::diff_policy_runs(*inst, *production, *twin, 7, spec);
      EXPECT_TRUE(diffs.empty())
          << spec << ": " << (diffs.empty() ? "" : diffs.front());
    }
  }
}

// --- zero-allocation reset-reuse --------------------------------------------

/// A sweep resets one policy object per cell and replays the trace; after
/// a warm-up cell has sized every index, later cells must allocate nothing.
void expect_no_allocation_across_sweep_cells(
    std::initializer_list<OnlinePolicy*> policies) {
  Xoshiro256pp rng(11);
  const Instance inst{BlockMap::contiguous(128, 4),
                      zipf_trace(128, 4000, 0.9, rng), 32};
  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  for (OnlinePolicy* policy : policies) {
    drive(*policy, inst, cache, meter);  // warm-up sizes every index
    drive(*policy, inst, cache, meter);
    const long long before = g_allocations.load();
    for (int round = 0; round < 3; ++round)
      drive(*policy, inst, cache, meter);
    EXPECT_EQ(g_allocations.load(), before)
        << policy->name()
        << ": reset()+replay across sweep cells must reuse index storage";
  }
}

TEST(ResetReuseTest, PoliciesDoNotAllocateAcrossSweepCells) {
  LruPolicy lru;
  FifoPolicy fifo;
  LfuPolicy lfu;
  GreedyDualPolicy gd;
  expect_no_allocation_across_sweep_cells({&lru, &fifo, &lfu, &gd});
}

TEST(ResetReuseTest, ModernPoliciesDoNotAllocateAcrossSweepCells) {
  S3FifoPolicy s3;
  S3FifoPolicy s3_wide(0.25);
  SievePolicy sieve;
  ArcPolicy arc;
  BlockS3FifoPolicy block_s3;
  BlockSievePolicy block_sieve;
  expect_no_allocation_across_sweep_cells(
      {&s3, &s3_wide, &sieve, &arc, &block_s3, &block_sieve});
}

TEST(ResetReuseTest, DetOnlineServesAMillionRequestsWithoutAllocating) {
  // Algorithm 1 keeps one dual-load entry per cached page in slots sized
  // at reset(), so its state is bounded however long the stream runs: on
  // a stream that always hits (k >= n), where a list of every request
  // since the last flush would grow forever, and on a blocklocal stream
  // that overflows and flushes.
  constexpr Time kRequests = 1'000'000;
  const BlockMap blocks = BlockMap::contiguous(512, 8);
  struct Stream {
    const char* label;
    int k;
    std::vector<PageId> requests;
  };
  const Stream streams[] = {
      {"k >= n", 512, zipf_trace(512, kRequests, 0.9, Xoshiro256pp(12))},
      {"blocklocal", 128,
       block_local_trace(blocks, kRequests, 0.75, 0.9, Xoshiro256pp(13))},
  };
  for (const Stream& s : streams) {
    const Instance inst{blocks, {}, s.k};
    CacheSet cache(inst.n_pages());
    for (PageId q = 0; q < inst.n_pages(); ++q) cache.insert(q);
    cache.clear();  // the member list keeps room for every page
    CostMeter meter(inst.blocks);
    CacheOps ops(inst.blocks, cache, meter, inst.k);
    DetOnlineBlockAware det;
    det.reset(inst);
    const long long before = g_allocations.load();
    for (Time t = 1; t <= kRequests; ++t) {
      meter.begin_step(t);
      det.on_request(t, s.requests[static_cast<std::size_t>(t - 1)], ops);
    }
    EXPECT_EQ(g_allocations.load(), before) << s.label;
    EXPECT_LE(cache.size(), inst.k) << s.label;
    if (s.k >= inst.n_pages())
      EXPECT_EQ(det.flushes(), 0) << s.label;
    else
      EXPECT_GT(det.flushes(), 1000) << s.label;
  }
}

TEST(ResetReuseTest, ThresholdPoliciesServeAMillionRequestsWithoutAllocating) {
  // Theorem 4.1's rounding and its fractional substrate keep their page
  // lists (seen, x < 1, moved, per-block decreases) in vectors that only
  // grow, each bounded by n. After a 2*10^4-request warm-up, both modes
  // must serve a million blocklocal requests without allocating.
  constexpr Time kWarmUp = 20'000;
  constexpr Time kRequests = 1'000'000;
  const BlockMap blocks = BlockMap::contiguous(64, 4);
  const std::vector<PageId> requests = block_local_trace(
      blocks, kWarmUp + kRequests, 0.75, 0.9, Xoshiro256pp(15));
  using Mode = ThresholdBicriteriaPolicy::Mode;
  for (const Mode mode : {Mode::Fetching, Mode::Eviction}) {
    const Instance inst{blocks, {}, 16};
    CacheSet cache(inst.n_pages());
    for (PageId q = 0; q < inst.n_pages(); ++q) cache.insert(q);
    cache.clear();  // the member list keeps room for every page
    CostMeter meter(inst.blocks);
    CacheOps ops(inst.blocks, cache, meter, inst.k);
    ThresholdBicriteriaPolicy policy(mode);
    policy.reset(inst);
    const auto serve = [&](Time from, Time to) {
      for (Time t = from; t <= to; ++t) {
        meter.begin_step(t);
        policy.on_request(t, requests[static_cast<std::size_t>(t - 1)], ops);
      }
    };
    serve(1, kWarmUp);
    const long long before = g_allocations.load();
    serve(kWarmUp + 1, kWarmUp + kRequests);
    EXPECT_EQ(g_allocations.load(), before) << policy.name();
    EXPECT_LE(cache.size(), inst.k) << policy.name();
    EXPECT_GT(policy.fractional_block_fetch(), 0.0) << policy.name();
  }
}

TEST(ResetReuseTest, RegistryPoliciesServeAMillionRequestsWithoutAllocating) {
  // Every registry policy keeps its state in storage sized by reset() or
  // grown to a bound set by n and k. After a 2*10^4-request warm-up, each
  // must serve a million requests of a blocklocal and of a scan stream
  // without allocating. The streams are materialized in the instance, so
  // belady, which reads the future at reset(), serves them too; only the
  // scan reaches the else-branch of ARC's case IV(a). rand_online keeps
  // its dead flush entries, so its state still grows with the stream;
  // the two threshold_* policies have their own million-request test.
  constexpr Time kWarmUp = 20'000;
  constexpr Time kRequests = 1'000'000;
  const BlockMap blocks = BlockMap::contiguous(512, 8);
  struct Stream {
    const char* label;
    Instance inst;
  };
  const Stream streams[] = {
      {"blocklocal",
       {blocks,
        block_local_trace(blocks, kWarmUp + kRequests, 0.75, 0.9,
                          Xoshiro256pp(16)),
        128}},
      {"scan", {blocks, scan_trace(512, kWarmUp + kRequests), 128}},
  };
  for (const std::string& name : policy_names()) {
    if (name == "rand_online" || name.rfind("threshold_", 0) == 0) continue;
    for (const auto& [label, inst] : streams) {
      CacheSet cache(inst.n_pages());
      for (PageId q = 0; q < inst.n_pages(); ++q) cache.insert(q);
      cache.clear();  // the member list keeps room for every page
      CostMeter meter(inst.blocks);
      CacheOps ops(inst.blocks, cache, meter, inst.k);
      const std::unique_ptr<OnlinePolicy> policy = make_policy(name);
      policy->reset(inst);
      policy->seed(7);
      const auto serve = [&](Time from, Time to) {
        for (Time t = from; t <= to; ++t) {
          meter.begin_step(t);
          policy->on_request(t, inst.request_at(t), ops);
        }
      };
      serve(1, kWarmUp);
      const long long before = g_allocations.load();
      serve(kWarmUp + 1, kWarmUp + kRequests);
      EXPECT_EQ(g_allocations.load(), before) << name << ", " << label;
      EXPECT_LE(cache.size(), inst.k) << name << ", " << label;
    }
  }
}

TEST(ResetReuseTest, ConcurrentCacheServesWithoutAllocating) {
  // get_batch regroups each batch by shard in per-thread scratch that only
  // grows, and the shards' histograms, cache sets and policy state are
  // sized on first use. After one warm-up batch that requests every page
  // (every shard is hit and every shard cache fills), a million requests
  // in 512-request batches over 64 shards must allocate nothing.
  constexpr int kBatch = 512;
  const BlockMap blocks = BlockMap::contiguous(4096, 8);
  const Instance context{blocks, {}, 1024};
  const std::vector<PageId> requests =
      zipf_trace(4096, 1'000'000, 0.9, Xoshiro256pp(14));
  server::ConcurrentCache cache(context, LruPolicy(), 64, 1);
  std::vector<PageId> warm_up(4096);
  for (PageId p = 0; p < 4096; ++p) warm_up[static_cast<std::size_t>(p)] = p;
  cache.get_batch(warm_up.data(), static_cast<int>(warm_up.size()));
  const int T = static_cast<int>(requests.size());
  const long long before = g_allocations.load();
  for (int i = 0; i < T; i += kBatch)
    cache.get_batch(requests.data() + i, std::min(kBatch, T - i));
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(cache.stats().requests, 4096 + 1'000'000);
}

TEST(ResetReuseTest, DecodersServeAMillionRequestsWithoutAllocating) {
  // Decode runs once per request before any policy does. After the first
  // batch (which may size buffers), each source must serve 10^6 requests
  // through next_batch without allocating: the synthetic zipf and
  // blocklocal draws, and CSV rows, whose ~10^5-row file is rewound
  // whenever it ends, so rewind() and every chunk refill are inside the
  // counted region.
  constexpr long long kRequests = 1'000'000;
  constexpr int kBatch = 512;
  std::vector<PageId> buf(kBatch);
  const auto served_without_allocating = [&](RequestSource& src,
                                             const char* label) {
    ASSERT_EQ(src.next_batch(buf.data(), kBatch), kBatch) << label;
    long long served = 0;
    long long checksum = 0;
    const long long before = g_allocations.load();
    while (served < kRequests) {
      const int m = src.next_batch(buf.data(), kBatch);
      if (m == 0) {
        src.rewind();
        continue;
      }
      for (int i = 0; i < m; ++i) checksum += buf[static_cast<std::size_t>(i)];
      served += m;
    }
    EXPECT_EQ(g_allocations.load(), before) << label;
    EXPECT_GT(checksum, 0) << label;
  };

  const auto zipf = SyntheticSource::zipf(
      Instance{BlockMap::contiguous(1 << 14, 8), {}, 1 << 11},
      kBatch + kRequests, 0.9, Xoshiro256pp(1));
  served_without_allocating(*zipf, "zipf");
  const auto blocklocal = SyntheticSource::block_local(
      Instance{BlockMap::contiguous(4096, 8), {}, 1024}, kBatch + kRequests,
      0.75, 0.9, Xoshiro256pp(2));
  served_without_allocating(*blocklocal, "blocklocal");

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bac_decode_alloc_" + std::to_string(::getpid()) + ".csv"))
          .string();
  {
    std::ofstream out(path);
    out << "timestamp,key,size\n";
    const std::vector<PageId> keys =
        zipf_trace(1 << 14, 100'000, 0.9, Xoshiro256pp(3));
    for (std::size_t i = 0; i < keys.size(); ++i)
      out << i + 1 << ",obj-" << keys[i] << ",4096\n";
  }
  CsvOptions options;
  options.k = 1 << 11;
  auto mapping =
      std::make_shared<const CsvMapping>(build_csv_mapping(path, options));
  {
    CsvSource csv(path, mapping, options);
    served_without_allocating(csv, "csv");
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace bac
