// Build-system canary: instantiates every classical policy plus the
// paper's deterministic online algorithm on one tiny instance and runs
// each through the simulator. A link/registration regression (a policy
// object file dropped from libbac, a broken vtable, an accidental
// behavioral NaN) fails here in one obvious place instead of somewhere
// deep in an experiment bench.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "algs/policies/classical.hpp"
#include "algs/det_online.hpp"
#include "algs/zoo.hpp"
#include "core/simulator.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace bac {
namespace {

Instance smoke_instance() {
  // 12 pages in blocks of 3, k = 6 — large enough that every policy must
  // evict, small enough to stay instant under ASan.
  const int n = 12, beta = 3, k = 6;
  return make_instance(n, beta, k,
                       zipf_trace(n, /*T=*/400, 0.9, Xoshiro256pp(7)));
}

void expect_feasible_run(OnlinePolicy& policy) {
  const Instance inst = smoke_instance();
  const RunResult r = simulate(inst, policy);
  SCOPED_TRACE(policy.name());
  // The simulator audits feasibility at every step and throws on a
  // violation, so reaching here already proves the run was legal; the
  // violations counter double-checks no silent repair happened.
  EXPECT_EQ(r.violations, 0);
  EXPECT_TRUE(std::isfinite(r.eviction_cost));
  EXPECT_TRUE(std::isfinite(r.fetch_cost));
  EXPECT_GE(r.eviction_cost, 0.0);
  EXPECT_GE(r.fetch_cost, 0.0);
  // The trace touches more distinct pages than fit in cache, so any real
  // policy pays something in both cost models.
  EXPECT_GT(r.misses, 0);
  EXPECT_GT(r.fetch_cost, 0.0);
}

TEST(RegistrySmoke, Lru) {
  LruPolicy p;
  expect_feasible_run(p);
}

TEST(RegistrySmoke, Fifo) {
  FifoPolicy p;
  expect_feasible_run(p);
}

TEST(RegistrySmoke, Lfu) {
  LfuPolicy p;
  expect_feasible_run(p);
}

TEST(RegistrySmoke, BlockLru) {
  BlockLruPolicy plain(false);
  expect_feasible_run(plain);
  BlockLruPolicy prefetch(true);
  expect_feasible_run(prefetch);
}

TEST(RegistrySmoke, Marking) {
  MarkingPolicy p;
  expect_feasible_run(p);
}

TEST(RegistrySmoke, GreedyDual) {
  GreedyDualPolicy p;
  expect_feasible_run(p);
}

TEST(RegistrySmoke, Belady) {
  BeladyPolicy p;
  expect_feasible_run(p);
}

TEST(RegistrySmoke, DetOnline) {
  DetOnlineBlockAware p;
  expect_feasible_run(p);
}

// The zoo factory is how benches and examples enumerate policies: one
// per registry name. Every entry it hands out must survive a run too (and
// carry a distinct name).
TEST(RegistrySmoke, ZooRoster) {
  const auto zoo = make_policy_zoo();
  ASSERT_EQ(zoo.size(), policy_names().size());
  std::vector<std::string> names;
  for (const auto& policy : zoo) {
    ASSERT_NE(policy, nullptr);
    names.push_back(policy->name());
    expect_feasible_run(*policy);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "duplicate policy names in the zoo";
}

}  // namespace
}  // namespace bac
