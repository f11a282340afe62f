// The differential fuzz-verification subsystem: instance generation,
// trace mutators, the shrinker, every oracle family running clean over
// fuzz seeds, and the end-to-end demo that an injected off-by-one
// eviction bug is caught, shrunk, and reproduced from its artifact.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "algs/policies/classical.hpp"
#include "algs/zoo.hpp"
#include "core/simulator.hpp"
#include "trace/bact.hpp"
#include "trace/generators.hpp"
#include "trace/mutators.hpp"
#include "util/thread_pool.hpp"
#include "verify/fuzz.hpp"
#include "verify/gen.hpp"
#include "verify/oracles.hpp"
#include "verify/reference_policies.hpp"
#include "verify/shrink.hpp"

namespace bac {
namespace {

// Real parallelism for the mc_equivalence / concurrency oracles even on
// single-core CI runners.
[[maybe_unused]] const bool g_pool_sized = [] {
  configure_global_pool(4);
  return true;
}();

// --- generator --------------------------------------------------------------

TEST(FuzzGen, DeterministicAndValid) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const verify::GeneratedInstance a = verify::random_instance(seed);
    const verify::GeneratedInstance b = verify::random_instance(seed);
    EXPECT_EQ(a.inst.requests, b.inst.requests) << "seed " << seed;
    EXPECT_EQ(a.inst.k, b.inst.k);
    EXPECT_EQ(a.descriptor, b.descriptor);
    EXPECT_NO_THROW(a.inst.validate()) << a.descriptor;
  }
}

TEST(FuzzGen, StreamingTwinYieldsTheMaterializedRequests) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 120 && checked < 10; ++seed) {
    const verify::GeneratedInstance gi = verify::random_instance(seed);
    if (!gi.streaming_twin) continue;
    ++checked;
    const auto source = gi.streaming_twin();
    std::vector<PageId> streamed;
    PageId p = 0;
    while (source->next(p)) streamed.push_back(p);
    EXPECT_EQ(streamed, gi.inst.requests) << gi.descriptor;
    EXPECT_EQ(source->context().k, gi.inst.k);
  }
  EXPECT_GE(checked, 5) << "generator should produce twinned shapes often";
}

TEST(FuzzGen, CoversTheEdgeShapes) {
  bool saw_k_eq_beta = false, saw_t0 = false, saw_t_lt_k = false,
       saw_single_block = false, saw_singleton = false;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const Instance& inst = verify::random_instance(seed).inst;
    saw_k_eq_beta |= inst.k == inst.blocks.beta();
    saw_t0 |= inst.horizon() == 0;
    saw_t_lt_k |= inst.horizon() < inst.k;
    saw_single_block |= inst.blocks.n_blocks() == 1;
    saw_singleton |= inst.blocks.beta() == 1 && inst.n_pages() > 1;
  }
  EXPECT_TRUE(saw_k_eq_beta);
  EXPECT_TRUE(saw_t0);
  EXPECT_TRUE(saw_t_lt_k);
  EXPECT_TRUE(saw_single_block);
  EXPECT_TRUE(saw_singleton);
}

// --- mutators ---------------------------------------------------------------

TEST(Mutators, KeepPrefixTruncatesAndShares) {
  const Instance inst{BlockMap::contiguous(8, 2), {0, 1, 2, 3, 4, 5}, 4};
  const Instance cut = keep_prefix(inst, 3);
  EXPECT_EQ(cut.requests, (std::vector<PageId>{0, 1, 2}));
  EXPECT_EQ(cut.k, 4);
  EXPECT_TRUE(cut.blocks.shares_structure(inst.blocks));
  EXPECT_EQ(keep_prefix(inst, 99).requests, inst.requests);
  EXPECT_THROW(keep_prefix(inst, -1), std::invalid_argument);
}

TEST(Mutators, DropBlockRenumbersPagesAndFiltersRequests) {
  // Blocks: {0,1} {2,3} {4,5}; drop middle block 1.
  const Instance inst{BlockMap::contiguous(6, 2), {0, 2, 4, 3, 5, 1, 2}, 2};
  const Instance cut = drop_block(inst, 1);
  EXPECT_EQ(cut.n_pages(), 4);
  EXPECT_EQ(cut.blocks.n_blocks(), 2);
  // Pages 4,5 renumber to 2,3; requests to old pages 2,3 disappear.
  EXPECT_EQ(cut.requests, (std::vector<PageId>{0, 2, 3, 1}));
  EXPECT_EQ(cut.blocks.block_of(2), 1);
  EXPECT_DOUBLE_EQ(cut.blocks.cost(1), inst.blocks.cost(2));
  EXPECT_THROW(drop_block(inst, 9), std::invalid_argument);
  const Instance one{BlockMap::contiguous(2, 2), {0}, 2};
  EXPECT_THROW(drop_block(one, 0), std::invalid_argument);
}

TEST(Mutators, WithKValidates) {
  const Instance inst{BlockMap::contiguous(6, 2), {0, 1}, 4};
  EXPECT_EQ(with_k(inst, 2).k, 2);
  EXPECT_TRUE(with_k(inst, 2).blocks.shares_structure(inst.blocks));
  EXPECT_THROW(with_k(inst, 1), std::invalid_argument);  // k < beta
  EXPECT_THROW(with_k(inst, 0), std::invalid_argument);
}

// --- shrinker ---------------------------------------------------------------

TEST(Shrink, ConvergesToAMinimalFailingInstance) {
  // Contrived monotone failure: "the trace still has >= 5 requests".
  const Instance start{BlockMap::contiguous(24, 3), [] {
                         std::vector<PageId> r;
                         for (int i = 0; i < 200; ++i)
                           r.push_back(static_cast<PageId>(i % 24));
                         return r;
                       }(),
                       12};
  const verify::ShrinkOutcome outcome = verify::shrink_instance(
      start, [](const Instance& c) { return c.horizon() >= 5; });
  EXPECT_TRUE(outcome.changed);
  EXPECT_EQ(outcome.inst.horizon(), 5) << "halving + peeling must bottom out";
  EXPECT_EQ(outcome.inst.k, outcome.inst.blocks.beta())
      << "k shrinks to the beta floor";
  EXPECT_LT(outcome.inst.n_pages(), start.n_pages())
      << "unneeded blocks get dropped";
}

TEST(Shrink, LeavesANonFailingInstanceAlone) {
  const Instance start{BlockMap::contiguous(4, 2), {0, 1}, 2};
  int calls = 0;
  const verify::ShrinkOutcome outcome = verify::shrink_instance(
      start, [&](const Instance&) {
        ++calls;
        return false;
      });
  EXPECT_FALSE(outcome.changed);
  EXPECT_EQ(outcome.inst.horizon(), start.horizon());
  EXPECT_GT(calls, 0);
}

// --- oracle families run clean over fuzz seeds ------------------------------

TEST(Oracles, AllFamiliesCleanOverSmokeSeeds) {
  verify::FuzzConfig config;
  config.seeds = 40;
  config.base_seed = 1;
  config.smoke = true;
  config.max_failures = 5;
  const verify::FuzzReport report = verify::run_fuzz(config);
  EXPECT_EQ(report.seeds_run, 40);
  EXPECT_EQ(report.family_checks,
            40 * static_cast<long long>(verify::oracle_family_names().size()));
  for (const auto& f : report.failures)
    ADD_FAILURE() << "seed " << f.seed << " [" << f.family << "] "
                  << f.detail << " (" << f.descriptor << ")";
}

TEST(Oracles, FamilyRegistryRejectsUnknownNames) {
  const verify::GeneratedInstance gi = verify::random_instance(3);
  verify::OracleOptions options;
  EXPECT_THROW(verify::check_family("definitely_not_a_family", gi, options),
               std::invalid_argument);
  EXPECT_EQ(verify::oracle_family_names().size(), 7u);
}

// --- policy_equivalence -----------------------------------------------------

TEST(PolicyEquivalence, FlatIndexPoliciesMatchSetReferencesOnFuzzInstances) {
  verify::OracleOptions options;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const verify::GeneratedInstance gi = verify::random_instance(seed);
    options.seed = seed;
    for (const verify::Violation& v :
         verify::check_family("policy_equivalence", gi, options))
      ADD_FAILURE() << "seed " << seed << ": " << v.detail << " ("
                    << gi.descriptor << ")";
  }
}

TEST(PolicyEquivalence, ThresholdEvictTwinSumsClassicCostInPageOrder) {
  // Full-tier seeds with skewed (non-contiguous) blocks and log-uniform
  // costs, where the threshold_evict twin once evicted block by block in
  // pages_in order: the same pages left in each step, but the meter added
  // their classic costs in another order than the policy's ascending
  // page order, so classic_eviction_cost differed in its last bits.
  verify::OracleOptions options;
  const std::uint64_t seeds[] = {679, 3459};
  for (const std::uint64_t seed : seeds) {
    const verify::GeneratedInstance gi = verify::random_instance(seed);
    options.seed = seed;
    for (const verify::Violation& v :
         verify::check_family("policy_equivalence", gi, options))
      ADD_FAILURE() << "seed " << seed << ": " << v.detail << " ("
                    << gi.descriptor << ")";
  }
}

TEST(PolicyEquivalence, ReferenceTwinsCoverEveryRewrittenPolicy) {
  const auto twins = verify::reference_policy_twins();
  std::vector<std::string> names;
  for (const auto& [name, ref] : twins) {
    names.push_back(name);
    EXPECT_NE(ref, nullptr);
    EXPECT_NO_THROW(make_policy(name)) << name;
  }
  const std::vector<std::string> expect = {
      "lru",          "fifo",  "lfu",         "belady",
      "greedy_dual",  "block_lru", "block_lru_prefetch",
      "s3fifo",       "s3fifo@0.25", "sieve", "arc",
      "block_s3fifo", "block_sieve", "threshold_fetch", "threshold_evict",
      "det_online"};
  EXPECT_EQ(names, expect);
}

TEST(PolicyEquivalence, DiffDetectsGenuinelyDifferentPolicies) {
  // The oracle must be able to fail: LRU vs FIFO diverge on a hit-heavy
  // trace (a hit refreshes LRU's order but not FIFO's).
  const Instance inst = make_instance(
      6, 2, 2, std::vector<PageId>{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0});
  LruPolicy lru;
  FifoPolicy fifo;
  const auto diffs = verify::diff_policy_runs(inst, lru, fifo, 1, "lru-fifo");
  EXPECT_FALSE(diffs.empty());
  // And agree with itself.
  LruPolicy a, b;
  EXPECT_TRUE(verify::diff_policy_runs(inst, a, b, 1, "lru-lru").empty());
}

// --- injected-bug demo ------------------------------------------------------

/// LRU with an off-by-one eviction: the eviction trigger compares against
/// capacity *before* the fetch, so the cache reaches k + 1 pages on the
/// (k+1)-th distinct page — exactly the class of bug the feasibility
/// audit + fuzzer must catch and shrink.
class BuggyLru final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "BuggyLru"; }
  void reset(const Instance& inst) override {
    stamp_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
    now_ = 0;
  }
  void on_request(Time, PageId p, CacheOps& cache) override {
    ++now_;
    if (!cache.contains(p)) {
      if (cache.size() > cache.capacity()) {  // BUG: should be >=
        PageId victim = -1;
        Time oldest = 0;
        for (PageId q : cache.pages())
          if (victim < 0 || stamp_[static_cast<std::size_t>(q)] < oldest) {
            victim = q;
            oldest = stamp_[static_cast<std::size_t>(q)];
          }
        cache.evict(victim);
      }
      cache.fetch(p);
    }
    stamp_[static_cast<std::size_t>(p)] = now_;
  }

 private:
  std::vector<Time> stamp_;
  Time now_ = 0;
};

verify::PolicySetFactory buggy_lru_set() {
  return [] {
    std::vector<std::unique_ptr<OnlinePolicy>> out;
    out.push_back(std::make_unique<BuggyLru>());
    return out;
  };
}

TEST(FuzzDemo, InjectedOffByOneEvictionIsCaughtAndShrunk) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bacfuzz_demo_" + std::to_string(::getpid())))
          .string();

  verify::FuzzConfig config;
  config.seeds = 80;
  config.smoke = true;
  config.families = {"cost_model"};
  config.max_failures = 1;
  config.artifact_dir = dir;
  config.oracle.policies = buggy_lru_set();
  const verify::FuzzReport report = verify::run_fuzz(config);

  ASSERT_EQ(report.failures.size(), 1u)
      << "the off-by-one eviction must surface within 80 seeds";
  const verify::FuzzFailure& f = report.failures.front();
  EXPECT_EQ(f.family, "cost_model");
  EXPECT_NE(f.detail.find("BuggyLru"), std::string::npos) << f.detail;

  // The shrunk repro is genuinely small: the bug needs k + 1 distinct
  // pages, so the minimal trace is about k + 1 requests over the fewest
  // blocks that still supply them.
  EXPECT_LE(f.shrunk.horizon(), f.shrunk.k + 2) << "shrinking stalled";
  EXPECT_LE(f.shrunk.n_pages(), f.shrunk.k + f.shrunk.blocks.beta() + 1);

  // The artifact pair exists, the .bact round-trips, and replaying it
  // against the buggy policy still reproduces the violation.
  ASSERT_FALSE(f.bact_path.empty());
  const Instance repro = load_bact(f.bact_path);
  verify::OracleOptions oracle;
  oracle.policies = buggy_lru_set();
  const auto violations =
      verify::replay_instance(repro, {"cost_model"}, oracle);
  EXPECT_FALSE(violations.empty()) << "repro artifact must still fail";

  std::ifstream json(f.json_path);
  ASSERT_TRUE(json.good());
  std::string blob((std::istreambuf_iterator<char>(json)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(blob.find("\"family\": \"cost_model\""), std::string::npos);
  EXPECT_NE(blob.find("--replay"), std::string::npos);
  // The replay line pins the oracle seed so randomized-policy failures
  // reproduce with the same per-run seeding.
  EXPECT_NE(blob.find("--seed " + std::to_string(f.seed)),
            std::string::npos)
      << blob;

  std::filesystem::remove_all(dir);
}

/// Correct per-run, but carries state across runs: reset() fails to clear
/// an eviction bias, so the second simulate() (the streaming replay)
/// diverges from the first — exactly the class of bug the streaming
/// family exists to catch.
class CrossRunStateful final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "CrossRunStateful";
  }
  void reset(const Instance&) override { /* BUG: runs_ not reset */ ++runs_; }
  void on_request(Time, PageId p, CacheOps& cache) override {
    if (!cache.contains(p)) {
      while (cache.size() >= cache.capacity()) {
        // Victim choice depends on how many runs this object has served.
        const auto& pages = cache.pages();
        cache.evict(pages[static_cast<std::size_t>(runs_) % pages.size()]);
      }
      cache.fetch(p);
    }
  }

 private:
  int runs_ = 0;
};

TEST(FuzzDemo, StreamingFailureArtifactCarriesASeedRepro) {
  // A --replay of a streaming failure's .bact cannot rebuild the
  // generator twin, so the artifact must point at seed regeneration
  // instead of a vacuously-clean replay line.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("bacfuzz_stream_" + std::to_string(::getpid())))
          .string();
  verify::FuzzConfig config;
  config.seeds = 120;
  config.smoke = true;
  config.families = {"streaming"};
  config.max_failures = 1;
  config.artifact_dir = dir;
  config.oracle.policies = [] {
    std::vector<std::unique_ptr<OnlinePolicy>> out;
    out.push_back(std::make_unique<CrossRunStateful>());
    return out;
  };
  const verify::FuzzReport report = verify::run_fuzz(config);
  ASSERT_EQ(report.failures.size(), 1u)
      << "cross-run state must diverge on a twinned seed within 120 seeds";
  const verify::FuzzFailure& f = report.failures.front();
  std::ifstream json(f.json_path);
  ASSERT_TRUE(json.good());
  std::string blob((std::istreambuf_iterator<char>(json)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(blob.find("--seeds 1 --seed " + std::to_string(f.seed)),
            std::string::npos)
      << blob;
  EXPECT_NE(blob.find("--smoke"), std::string::npos)
      << "the size tier shapes the generated instance; the repro must "
         "regenerate under the same tier";
  EXPECT_EQ(blob.find("--replay"), std::string::npos)
      << "streaming repro must not advertise a twinless --replay";
  std::filesystem::remove_all(dir);
}

TEST(FuzzDemo, CorrectPoliciesPassTheSameGauntlet) {
  // The same configuration with the real zoo stays clean — the demo's
  // signal comes from the injected bug, not from a trigger-happy oracle.
  verify::FuzzConfig config;
  config.seeds = 80;
  config.smoke = true;
  config.families = {"cost_model"};
  config.max_failures = 1;
  const verify::FuzzReport report = verify::run_fuzz(config);
  EXPECT_TRUE(report.failures.empty());
}

}  // namespace
}  // namespace bac
