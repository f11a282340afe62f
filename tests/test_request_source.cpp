// Streaming request sources: the trace/generators.hpp vectors are drains
// of SyntheticSource, and a page-level stream must not depend on the
// blocks of the header it reports; materialize() drains any source once;
// the streaming simulate() core must match the Instance path bit for bit,
// and the online aggregates (step-cost histogram, miss-ratio curve) must
// agree with exact recomputations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "algs/policies/classical.hpp"
#include "core/mrc.hpp"
#include "core/request_source.hpp"
#include "core/schedule.hpp"
#include "core/simulator.hpp"
#include "trace/generators.hpp"
#include "util/stats.hpp"
#include "verify/reference_policies.hpp"

namespace bac {
namespace {

std::vector<PageId> drain(RequestSource& src) {
  std::vector<PageId> out;
  PageId p;
  while (src.next(p)) out.push_back(p);
  return out;
}

/// n pages in contiguous unit-cost blocks of `block_size`, cache size k.
Instance header(int n, int block_size, int k) {
  return Instance{BlockMap::contiguous(n, block_size), {}, k};
}

TEST(SyntheticSource, MatchesUniformGenerator) {
  const std::uint64_t seed = 42;
  const auto expect = uniform_trace(32, 500, Xoshiro256pp(seed));
  auto src =
      SyntheticSource::uniform(header(32, 4, 8), 500, Xoshiro256pp(seed));
  EXPECT_EQ(drain(*src), expect);
}

TEST(SyntheticSource, MatchesZipfGenerator) {
  const std::uint64_t seed = 7;
  const auto expect = zipf_trace(64, 800, 0.9, Xoshiro256pp(seed));
  auto src =
      SyntheticSource::zipf(header(64, 8, 16), 800, 0.9, Xoshiro256pp(seed));
  EXPECT_EQ(drain(*src), expect);
}

TEST(SyntheticSource, MatchesScanGenerator) {
  const auto expect = scan_trace(10, 95);
  auto src = SyntheticSource::scan(header(10, 2, 4), 95);
  EXPECT_EQ(drain(*src), expect);
}

TEST(SyntheticSource, MatchesPhasedGenerator) {
  const std::uint64_t seed = 99;
  const auto expect = phased_trace(40, 600, 60, 12, Xoshiro256pp(seed));
  auto src = SyntheticSource::phased(header(40, 4, 12), 600, 60, 12,
                                     Xoshiro256pp(seed));
  EXPECT_EQ(drain(*src), expect);
}

TEST(SyntheticSource, PhasedRejectsBadShape) {
  // A non-positive phase length would reach t % phase_len, an integer
  // division by zero, and an empty working set would be indexed.
  const Xoshiro256pp rng(1);
  EXPECT_THROW(SyntheticSource::phased(header(40, 4, 12), 600, 0, 12, rng),
               std::invalid_argument);
  EXPECT_THROW(SyntheticSource::phased(header(40, 4, 12), 600, 60, 0, rng),
               std::invalid_argument);
  EXPECT_THROW(SyntheticSource::phased(header(40, 4, 12), 600, 60, -3, rng),
               std::invalid_argument);
}

TEST(SyntheticSource, RejectsAHeaderWithoutPages) {
  // A block map may hold no pages, which Instance::validate() accepts.
  // With no page to request, scan would reach t % 0 and uniform would
  // fail only at its first draw.
  const Instance empty{BlockMap({}, {1.0}), {}, 1};
  ASSERT_NO_THROW(empty.validate());
  EXPECT_THROW(SyntheticSource::scan(empty, 5), std::invalid_argument);
  EXPECT_THROW(SyntheticSource::uniform(empty, 5, Xoshiro256pp(1)),
               std::invalid_argument);
}

TEST(SyntheticSource, BlockLocalRejectsAnEmptyBlock) {
  // Block 1 has no pages, which Instance::validate() accepts. block_local
  // draws a block and then a page of it, so it refuses the header before
  // any draw; the other kinds draw pages and keep accepting it.
  const Instance gap{BlockMap({0, 0, 0}, {1.0, 1.0}), {}, 3};
  ASSERT_NO_THROW(gap.validate());
  EXPECT_THROW(
      SyntheticSource::block_local(gap, 50, 0.75, 0.9, Xoshiro256pp(1)),
      std::invalid_argument);
  auto uniform = SyntheticSource::uniform(gap, 50, Xoshiro256pp(1));
  EXPECT_EQ(drain(*uniform).size(), 50u);
}

TEST(SyntheticSource, MatchesBlockLocalGenerator) {
  const std::uint64_t seed = 5;
  const BlockMap blocks = BlockMap::contiguous(48, 6);
  const auto expect = block_local_trace(blocks, 700, 0.75, 0.9,
                                        Xoshiro256pp(seed));
  auto src = SyntheticSource::block_local(header(48, 6, 12), 700, 0.75, 0.9,
                                          Xoshiro256pp(seed));
  EXPECT_EQ(drain(*src), expect);
}

TEST(SyntheticSource, RewindReplaysIdentically) {
  auto src =
      SyntheticSource::zipf(header(32, 4, 8), 300, 1.1, Xoshiro256pp(13));
  const auto first = drain(*src);
  src->rewind();
  const auto second = drain(*src);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 300u);
}

TEST(InstanceSource, StreamsAndRewinds) {
  const Instance inst = make_instance(8, 2, 4, {0, 3, 5, 3, 7});
  InstanceSource src(inst);
  EXPECT_TRUE(src.materialized());
  EXPECT_EQ(src.horizon_hint(), 5);
  EXPECT_EQ(drain(src), inst.requests);
  src.rewind();
  EXPECT_EQ(drain(src), inst.requests);
}

TEST(Materialize, DrainsAnInstanceSourceOnce) {
  const Instance inst = make_instance(8, 2, 4, {0, 3, 5, 3, 7});
  InstanceSource src(inst);
  const Instance out = materialize(src);
  EXPECT_EQ(out.requests, inst.requests);
  EXPECT_EQ(out.k, inst.k);
  EXPECT_TRUE(out.blocks.shares_structure(inst.blocks));
  // Only the rest of the stream: a drained source adds nothing.
  EXPECT_TRUE(materialize(src).requests.empty());
}

/// A stream of unknown length: forwards next() alone, so it keeps the
/// base class's next_batch() and a horizon_hint() of -1.
class OpenEndedSource final : public RequestSource {
 public:
  explicit OpenEndedSource(RequestSource& inner) : inner_(inner) {}
  [[nodiscard]] const Instance& context() const override {
    return inner_.context();
  }
  bool next(PageId& p) override { return inner_.next(p); }
  void rewind() override { inner_.rewind(); }

 private:
  RequestSource& inner_;
};

TEST(Materialize, DrainsAStreamOfUnknownLength) {
  // 1,300 requests: two full 512-request batches and a partial one.
  const auto synthetic =
      SyntheticSource::zipf(header(64, 8, 16), 1300, 0.9, Xoshiro256pp(3));
  const std::vector<PageId> expect = drain(*synthetic);
  synthetic->rewind();
  OpenEndedSource src(*synthetic);
  ASSERT_EQ(src.horizon_hint(), -1);
  const Instance out = materialize(src);
  EXPECT_EQ(out.requests, expect);
  EXPECT_EQ(out.requests.size(), 1300u);
  EXPECT_EQ(out.k, 16);
}

/// Drain via next_batch with an awkward cap so batch boundaries land
/// mid-stream and the final batch is partial.
std::vector<PageId> drain_batched(RequestSource& src, int cap) {
  std::vector<PageId> out;
  std::vector<PageId> buf(static_cast<std::size_t>(cap));
  for (;;) {
    const int m = src.next_batch(buf.data(), cap);
    EXPECT_LE(m, cap);
    if (m == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + m);
  }
  // The end-of-stream contract: 0 again, and next() agrees.
  EXPECT_EQ(src.next_batch(buf.data(), cap), 0);
  PageId p;
  EXPECT_FALSE(src.next(p));
  return out;
}

/// FNV-1a over the page ids, one 32-bit word at a time.
std::uint64_t stream_hash(const std::vector<PageId>& pages) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const PageId p : pages) {
    h ^= static_cast<std::uint32_t>(p);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(SyntheticSource, ZipfAndBlockLocalStreamsArePinned) {
  // Hashes of 10^5-request streams at the shapes the end-to-end benchmark
  // replays (zipf0.9 at n = 2^14 and 4096; blocklocal, stay 0.75 and
  // zipf0.9 over blocks of 8, at n = 256 and 4096), captured when every
  // draw still ran a binary search over the cumulative table. The
  // guide-table sampler must reproduce them bit for bit, in the
  // generators and in the streaming sources, before and after rewind().
  struct Pin {
    bool zipf;  ///< else blocklocal
    int n;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {true, 16384, 1, 0xda7a07c67c66754cULL},
      {true, 4096, 1, 0x61ad37b4aa4809eeULL},
      {false, 256, 1, 0x8bbbb3a58fa419eaULL},
      {false, 4096, 1, 0x65947669dc23f042ULL},
      {true, 16384, 4, 0xd11a696bed7282a6ULL},
      {true, 4096, 4, 0x62748c561fba345eULL},
      {false, 256, 4, 0x8f4b940a8964401dULL},
      {false, 4096, 4, 0xf56c5dbc956da4e5ULL},
  };
  constexpr long long kT = 100'000;
  for (const Pin& pin : pins) {
    const std::string label = std::string(pin.zipf ? "zipf" : "blocklocal") +
                              " n=" + std::to_string(pin.n) +
                              " seed=" + std::to_string(pin.seed);
    const std::vector<PageId> generated =
        pin.zipf ? zipf_trace(pin.n, kT, 0.9, Xoshiro256pp(pin.seed))
                 : block_local_trace(BlockMap::contiguous(pin.n, 8), kT, 0.75,
                                     0.9, Xoshiro256pp(pin.seed));
    EXPECT_EQ(stream_hash(generated), pin.hash) << label;
    const Xoshiro256pp rng(pin.seed);
    const auto src =
        pin.zipf ? SyntheticSource::zipf(header(pin.n, 8, pin.n / 8), kT, 0.9,
                                         rng)
                 : SyntheticSource::block_local(header(pin.n, 8, pin.n / 4), kT,
                                                0.75, 0.9, rng);
    EXPECT_EQ(stream_hash(drain_batched(*src, 512)), pin.hash) << label;
    src->rewind();
    EXPECT_EQ(stream_hash(drain_batched(*src, 512)), pin.hash) << label;
  }
}

TEST(NextBatch, MatchesNextForEverySourceKind) {
  // Synthetic sources (one per generator kind) ...
  const auto make_synthetics = [] {
    std::vector<std::unique_ptr<RequestSource>> v;
    v.push_back(
        SyntheticSource::uniform(header(32, 4, 8), 700, Xoshiro256pp(5)));
    v.push_back(
        SyntheticSource::zipf(header(64, 8, 16), 700, 0.9, Xoshiro256pp(6)));
    v.push_back(SyntheticSource::scan(header(10, 2, 4), 700));
    v.push_back(SyntheticSource::phased(header(40, 4, 12), 700, 60, 12,
                                        Xoshiro256pp(7)));
    v.push_back(SyntheticSource::block_local(header(48, 6, 12), 700, 0.75, 0.9,
                                             Xoshiro256pp(8)));
    return v;
  };
  auto a = make_synthetics();
  auto b = make_synthetics();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto expect = drain(*a[i]);
    // 7 does not divide 700: the final batch is partial.
    EXPECT_EQ(drain_batched(*b[i], 7), expect) << "synthetic kind " << i;
    b[i]->rewind();
    EXPECT_EQ(drain_batched(*b[i], 1024), expect)
        << "synthetic kind " << i << " (single batch)";
  }
  // ... and the materialized adapter.
  const Instance inst = make_instance(8, 2, 4, {0, 3, 5, 3, 7, 1, 1});
  InstanceSource src(inst);
  EXPECT_EQ(drain_batched(src, 3), inst.requests);
  src.rewind();
  EXPECT_EQ(drain_batched(src, 512), inst.requests);
}

TEST(NextBatch, MixesWithNextMidStream) {
  auto src =
      SyntheticSource::zipf(header(32, 4, 8), 300, 1.1, Xoshiro256pp(13));
  const auto expect = drain(*src);
  src->rewind();
  std::vector<PageId> got;
  PageId p;
  std::vector<PageId> buf(64);
  ASSERT_TRUE(src->next(p));  // one single
  got.push_back(p);
  int m = src->next_batch(buf.data(), 64);  // then a batch
  got.insert(got.end(), buf.begin(), buf.begin() + m);
  ASSERT_TRUE(src->next(p));  // a single again
  got.push_back(p);
  while ((m = src->next_batch(buf.data(), 64)) > 0)
    got.insert(got.end(), buf.begin(), buf.begin() + m);
  EXPECT_EQ(got, expect);
}

bool same_run(const RunResult& a, const RunResult& b) {
  return a.counters() == b.counters() && a.violations == b.violations;
}

TEST(StreamingSimulate, MatchesMaterializedPathBitForBit) {
  const std::uint64_t seed = 3;
  const Instance inst =
      make_instance(64, 8, 16, zipf_trace(64, 2000, 0.9, Xoshiro256pp(seed)));
  auto src =
      SyntheticSource::zipf(header(64, 8, 16), 2000, 0.9, Xoshiro256pp(seed));

  LruPolicy lru_a, lru_b;
  const RunResult a = simulate(inst, lru_a);
  const RunResult b = simulate(*src, lru_b);
  EXPECT_TRUE(same_run(a, b));
  EXPECT_EQ(b.requests, 2000);

  src->rewind();
  BlockLruPolicy block_a(false), block_b(false);
  EXPECT_TRUE(same_run(simulate(inst, block_a), simulate(*src, block_b)));
}

TEST(StreamingSimulate, RejectsOfflinePoliciesOnStreams) {
  auto src = SyntheticSource::scan(header(16, 2, 8), 100);
  BeladyPolicy belady;
  EXPECT_THROW(simulate(*src, belady), std::invalid_argument);
  // Materialized sources still welcome them.
  const Instance inst = make_instance(16, 2, 8, scan_trace(16, 100));
  EXPECT_NO_THROW(simulate(inst, belady));
}

TEST(StreamingSimulate, SketchTracksStepCosts) {
  const Instance inst = make_instance(32, 4, 8, scan_trace(32, 1500));
  LruPolicy lru;
  const RunResult r = simulate(inst, lru);
  // A second LRU run's net schedule. LRU moves no page both ways within
  // one step, so the schedule holds every action.
  LruPolicy twin;
  const verify::RecordedRun rec = verify::record_run(inst, twin, 1);
  ASSERT_EQ(rec.transients, 0);
  ASSERT_EQ(rec.counters(), r.counters());

  // A step's exact cost: each distinct block it evicts from, plus each
  // distinct block it fetches into.
  const auto blocks_cost = [&](const std::vector<PageId>& pages) {
    std::vector<BlockId> seen;
    double cost = 0;
    for (const PageId p : pages) {
      const BlockId b = inst.blocks.block_of(p);
      if (std::find(seen.begin(), seen.end(), b) != seen.end()) continue;
      seen.push_back(b);
      cost += inst.blocks.cost(b);
    }
    return cost;
  };
  std::vector<double> step_totals;
  double exact_max = 0;
  for (const Schedule::Step& step : rec.schedule.steps) {
    const double total =
        blocks_cost(step.evictions) + blocks_cost(step.fetches);
    step_totals.push_back(total);
    exact_max = std::max(exact_max, total);
  }
  EXPECT_DOUBLE_EQ(r.step_cost_max, exact_max);
  // Quantiles are log-bucket midpoints (obs::Histogram, <= ~3% relative
  // error); the scan workload's step costs are near-constant, so the
  // estimates must land close to the exact quantiles.
  EXPECT_NEAR(r.step_cost_p50, quantile(step_totals, 0.50), 0.5);
  EXPECT_NEAR(r.step_cost_p99, quantile(step_totals, 0.99), 0.5);
  // The full distribution rides along: total mass and exact max agree.
  EXPECT_EQ(r.step_cost_hist.count(),
            static_cast<std::uint64_t>(step_totals.size()));
  EXPECT_DOUBLE_EQ(r.step_cost_hist.max(), exact_max);
}

TEST(MissRatioCurve, MatchesOfflineStackDistances) {
  Xoshiro256pp rng(11);
  const Instance inst =
      make_instance(24, 3, 6, zipf_trace(24, 3000, 0.8, rng));
  const int n = inst.n_pages();
  const long long T = inst.horizon();

  // Offline reference: the stack distance of a reuse is one plus the number
  // of distinct pages requested since the previous request of the same
  // page; LRU with k pages hits exactly the reuses at distance <= k.
  std::vector<long long> reuses_at(static_cast<std::size_t>(n) + 1, 0);
  std::vector<long long> last(static_cast<std::size_t>(n), -1);
  long long distinct = 0;
  for (long long t = 0; t < T; ++t) {
    const PageId p = inst.requests[static_cast<std::size_t>(t)];
    const long long prev = last[static_cast<std::size_t>(p)];
    if (prev < 0) {
      ++distinct;
    } else {
      std::vector<char> seen(static_cast<std::size_t>(n), 0);
      int between = 0;
      for (long long s = prev + 1; s < t; ++s) {
        char& mark = seen[static_cast<std::size_t>(
            inst.requests[static_cast<std::size_t>(s)])];
        if (!mark) ++between;
        mark = 1;
      }
      ++reuses_at[static_cast<std::size_t>(between) + 1];
    }
    last[static_cast<std::size_t>(p)] = t;
  }

  MissRatioCurve curve(n);
  for (PageId p : inst.requests) curve.add(p);
  for (const int k : {1, 2, 4, 8, 16, 24}) {
    long long hits = 0;
    for (int d = 1; d <= k; ++d) hits += reuses_at[static_cast<std::size_t>(d)];
    EXPECT_NEAR(curve.miss_ratio(k),
                1.0 - static_cast<double>(hits) / static_cast<double>(T),
                1e-12)
        << "k=" << k;
  }
  EXPECT_EQ(curve.requests(), 3000);
  EXPECT_EQ(curve.compulsory_misses(), distinct);
}

TEST(MissRatioCurve, SurvivesPositionCompaction) {
  // n=8 gives a Fenwick capacity of 64 slots; 5000 requests force many
  // compactions. Cross-check against a brute-force LRU stack.
  const int n = 8;
  Xoshiro256pp rng(21);
  std::vector<PageId> requests;
  for (int i = 0; i < 5000; ++i)
    requests.push_back(static_cast<PageId>(rng.below(n)));

  MissRatioCurve curve(n);
  std::vector<PageId> stack;  // most recent first
  long long brute_hits_k3 = 0;
  for (PageId p : requests) {
    const auto it = std::find(stack.begin(), stack.end(), p);
    if (it != stack.end() && it - stack.begin() < 3) ++brute_hits_k3;
    if (it != stack.end()) stack.erase(it);
    stack.insert(stack.begin(), p);
    curve.add(p);
  }
  const double brute_miss =
      1.0 - static_cast<double>(brute_hits_k3) / 5000.0;
  EXPECT_NEAR(curve.miss_ratio(3), brute_miss, 1e-12);
}

TEST(MissRatioCurve, MatchesSimulatedLruMisses) {
  const std::uint64_t seed = 17;
  const int n = 40, beta = 4, T = 2500;
  for (const int k : {4, 8, 16}) {
    const Instance inst = make_instance(
        n, beta, k, zipf_trace(n, T, 1.0, Xoshiro256pp(seed)));
    LruPolicy lru;
    SimOptions options;
    options.mrc_ks = {k};
    const RunResult r = simulate(inst, lru, options);
    ASSERT_EQ(r.miss_curve.size(), 1u);
    EXPECT_EQ(r.miss_curve[0].first, k);
    EXPECT_NEAR(r.miss_curve[0].second,
                static_cast<double>(r.misses) / static_cast<double>(T), 1e-12)
        << "LRU misses must equal the curve at its own k";
  }
}

}  // namespace
}  // namespace bac
