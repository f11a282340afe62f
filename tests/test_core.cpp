// Unit tests for the core model: instances, request indices, cache set,
// batched cost metering, schedules, and the simulator's auditing.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/cache_set.hpp"
#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/simulator.hpp"

namespace bac {
namespace {

Instance tiny_instance() {
  // 4 pages, 2 blocks of 2, k = 2; requests 0 1 2 3 0.
  return Instance{BlockMap::contiguous(4, 2), {0, 1, 2, 3, 0}, 2};
}

TEST(Instance, ValidateCatchesErrors) {
  Instance bad = tiny_instance();
  bad.k = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_instance();
  bad.requests.push_back(99);
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = tiny_instance();
  bad.k = 1;  // beta = 2 > k
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(RequestIndexTest, PrevNextAreConsistent) {
  const Instance inst{BlockMap::contiguous(3, 1), {0, 1, 0, 2, 1, 0}, 2};
  const RequestIndex idx(inst);
  // prev: first occurrences have prev 0.
  EXPECT_EQ(idx.prev[0], 0);
  EXPECT_EQ(idx.prev[1], 0);
  EXPECT_EQ(idx.prev[2], 1);  // page 0 requested at time 1
  EXPECT_EQ(idx.prev[4], 2);  // page 1 requested at time 2
  EXPECT_EQ(idx.prev[5], 3);  // page 0 requested at time 3
  // next: last occurrences have next T+1 = 7.
  EXPECT_EQ(idx.next[0], 3);
  EXPECT_EQ(idx.next[3], 7);
  EXPECT_EQ(idx.next[5], 7);
}

TEST(RequestIndexTest, MaterializedRMatchesDefinition) {
  const Instance inst{BlockMap::contiguous(3, 1), {0, 1, 0}, 2};
  const auto r = RequestIndex::materialize_r(inst);
  const auto n = static_cast<std::size_t>(inst.n_pages());
  // r(p, 0) = never for all p.
  for (std::size_t p = 0; p < n; ++p) EXPECT_EQ(r[0 * n + p], kNeverRequested);
  EXPECT_EQ(r[1 * n + 0], 1);
  EXPECT_EQ(r[1 * n + 1], kNeverRequested);
  EXPECT_EQ(r[2 * n + 1], 2);
  EXPECT_EQ(r[3 * n + 0], 3);
  EXPECT_EQ(r[3 * n + 1], 2);
  EXPECT_EQ(r[3 * n + 2], kNeverRequested);
}

TEST(CacheSetTest, InsertEraseContains) {
  CacheSet c(5);
  EXPECT_FALSE(c.contains(3));
  EXPECT_TRUE(c.insert(3));
  EXPECT_FALSE(c.insert(3));  // already present
  EXPECT_TRUE(c.contains(3));
  EXPECT_EQ(c.size(), 1);
  EXPECT_TRUE(c.insert(1));
  EXPECT_TRUE(c.erase(3));
  EXPECT_FALSE(c.erase(3));
  EXPECT_EQ(c.size(), 1);
  EXPECT_TRUE(c.contains(1));
  c.clear();
  EXPECT_EQ(c.size(), 0);
  EXPECT_FALSE(c.contains(1));
}

TEST(CacheSetTest, SwapRemoveKeepsMembersConsistent) {
  CacheSet c(10);
  for (PageId p = 0; p < 6; ++p) c.insert(p);
  c.erase(2);
  c.erase(0);
  EXPECT_EQ(c.size(), 4);
  int seen = 0;
  for (PageId p : c.pages()) {
    EXPECT_TRUE(c.contains(p));
    ++seen;
  }
  EXPECT_EQ(seen, 4);
}

TEST(CostMeterTest, BatchesWithinStepAndBlock) {
  const BlockMap m = BlockMap::contiguous(6, 3, 2.0);  // 2 blocks, cost 2
  CostMeter meter(m);
  meter.begin_step(1);
  meter.on_evict(0);
  meter.on_evict(1);  // same block, same step: free
  meter.on_evict(3);  // other block
  EXPECT_DOUBLE_EQ(meter.eviction_cost(), 4.0);
  EXPECT_EQ(meter.evict_block_events(), 2);
  EXPECT_EQ(meter.evicted_pages(), 3);
  meter.begin_step(2);
  meter.on_evict(2);  // block 0 again, new step: pays again
  EXPECT_DOUBLE_EQ(meter.eviction_cost(), 6.0);
  // classic (unbatched) accounting counts every page.
  EXPECT_DOUBLE_EQ(meter.classic_eviction_cost(), 8.0);
}

TEST(CostMeterTest, FetchAndEvictSidesAreIndependent) {
  const BlockMap m = BlockMap::contiguous(4, 2);
  CostMeter meter(m);
  meter.begin_step(1);
  meter.on_fetch(0);
  meter.on_evict(1);  // same block: both sides charge once each
  EXPECT_DOUBLE_EQ(meter.fetch_cost(), 1.0);
  EXPECT_DOUBLE_EQ(meter.eviction_cost(), 1.0);
}

TEST(ScheduleTest, EvaluateComputesBatchedCosts) {
  const Instance inst = tiny_instance();  // requests 0 1 2 3 0, k=2
  Schedule s;
  s.steps.resize(5);
  s.steps[0].fetches = {0};
  s.steps[1].fetches = {1};
  s.steps[2].evictions = {0, 1};  // one block event (block 0)
  s.steps[2].fetches = {2};
  s.steps[3].fetches = {3};
  s.steps[4].evictions = {2, 3};  // one block event (block 1)
  s.steps[4].fetches = {0};
  const ReplayResult c = replay_schedule(inst, s);
  EXPECT_TRUE(c.feasible) << c.infeasibility;
  EXPECT_DOUBLE_EQ(c.eviction_cost, 2.0);
  EXPECT_DOUBLE_EQ(c.fetch_cost, 5.0);  // steps 1,2,3,4,5 each one block fetch
}

TEST(ScheduleTest, DetectsInfeasibility) {
  const Instance inst = tiny_instance();
  Schedule s;
  s.steps.resize(5);  // never fetches anything
  const ReplayResult c = replay_schedule(inst, s);
  EXPECT_FALSE(c.feasible);
  EXPECT_NE(c.infeasibility.find("t=1"), std::string::npos);
}

TEST(ScheduleTest, DetectsCapacityViolation) {
  const Instance inst = tiny_instance();
  Schedule s;
  s.steps.resize(5);
  s.steps[0].fetches = {0, 1, 2};  // 3 > k = 2
  const ReplayResult c = replay_schedule(inst, s);
  EXPECT_FALSE(c.feasible);
}

/// A policy that does nothing — the simulator must flag it.
class DoNothing final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "DoNothing"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId, CacheOps&) override {}
};

TEST(SimulatorTest, ThrowsOnInfeasiblePolicy) {
  const Instance inst = tiny_instance();
  DoNothing p;
  EXPECT_THROW(simulate(inst, p), std::runtime_error);
}

/// A policy that hoards pages beyond capacity.
class Hoarder final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "Hoarder"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId p, CacheOps& cache) override { cache.fetch(p); }
};

TEST(SimulatorTest, ThrowsOnCapacityViolation) {
  const Instance inst = tiny_instance();
  Hoarder p;
  EXPECT_THROW(simulate(inst, p), std::runtime_error);
}

TEST(SimulatorTest, SchedulePolicyMatchesEvaluate) {
  const Instance inst = tiny_instance();
  Schedule s;
  s.steps.resize(5);
  s.steps[0].fetches = {0};
  s.steps[1].fetches = {1};
  s.steps[2].evictions = {0, 1};
  s.steps[2].fetches = {2};
  s.steps[3].fetches = {3};
  s.steps[4].evictions = {2, 3};
  s.steps[4].fetches = {0};
  const ReplayResult ref = replay_schedule(inst, s);
  SchedulePolicy policy(s);
  const RunResult r = simulate(inst, policy);
  // Replay counts requests, hits and misses the way a live run does.
  EXPECT_EQ(r.counters(), ref.counters());
}

TEST(ScheduleTest, ReplayReportsFullAccountingAndFinalState) {
  const Instance inst = tiny_instance();  // requests 0 1 2 3 0, k=2
  Schedule s;
  s.steps.resize(5);
  s.steps[0].fetches = {0};
  s.steps[1].fetches = {1};
  s.steps[2].evictions = {0, 1};
  s.steps[2].fetches = {2};
  s.steps[3].fetches = {3};
  s.steps[4].evictions = {2, 3};
  s.steps[4].fetches = {0};
  const ReplayResult r = replay_schedule(inst, s);
  EXPECT_TRUE(r.feasible) << r.infeasibility;
  EXPECT_DOUBLE_EQ(r.eviction_cost, 2.0);
  EXPECT_DOUBLE_EQ(r.fetch_cost, 5.0);
  EXPECT_DOUBLE_EQ(r.classic_eviction_cost, 4.0);  // 4 page evictions, cost 1
  EXPECT_DOUBLE_EQ(r.classic_fetch_cost, 5.0);
  EXPECT_EQ(r.evicted_pages, 4);
  EXPECT_EQ(r.fetched_pages, 5);
  EXPECT_EQ(r.evict_block_events, 2);
  // Every request finds its page absent before its step's actions.
  EXPECT_EQ(r.requests, 5);
  EXPECT_EQ(r.misses, 5);
  EXPECT_EQ(r.hits, 0);
  EXPECT_EQ(r.final_cache, (std::vector<PageId>{0}));
}

/// Flushes the requested page's whole block, then refetches the request —
/// every step moves up to beta pages, exercising the capture path that was
/// quadratic per step before stamp-based cancellation.
class FlushHappy final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "FlushHappy"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId p, CacheOps& cache) override {
    cache.flush_block(cache.blocks().block_of(p));
    cache.fetch(p);
  }
};

TEST(SimulatorTest, FlushHeavyCaptureReplaysExactly) {
  // Regression for the O(step^2) capture: a flush-heavy policy over large
  // blocks must capture a schedule whose replay is state- and cost-exact.
  const int n = 64, beta = 16, k = 32;
  std::vector<PageId> requests;
  for (int i = 0; i < 400; ++i)
    requests.push_back(static_cast<PageId>((i * 7) % n));
  const Instance inst{BlockMap::contiguous(n, beta), std::move(requests), k};
  FlushHappy policy;
  SimOptions opt;
  opt.record_schedule = true;
  const RunResult live = simulate(inst, policy, opt);
  EXPECT_EQ(live.capture_cancellations, 0);
  const ReplayResult replay = replay_schedule(inst, live.schedule);
  EXPECT_TRUE(replay.feasible) << replay.infeasibility;
  EXPECT_EQ(replay.counters(), live.counters());
  EXPECT_EQ(replay.final_cache, live.final_cache);
  EXPECT_EQ(static_cast<int>(replay.final_cache.size()), live.cached_pages);
}

/// Fetches a victim page then evicts it within the same step: the capture
/// must net the pair out (state-exact replay) and count the cancellation.
class TransientChurn final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "TransientChurn"; }
  void reset(const Instance&) override {}
  void on_request(Time, PageId p, CacheOps& cache) override {
    if (!cache.contains(p)) {
      const PageId scratch = p == 0 ? 1 : 0;
      const bool had_scratch = cache.contains(scratch);
      if (!had_scratch && cache.size() + 2 <= cache.capacity()) {
        cache.fetch(scratch);   // transient: fetched then evicted below
        cache.evict(scratch);
      }
      while (cache.size() >= cache.capacity()) {
        for (PageId q : cache.pages())
          if (q != p) {
            cache.evict(q);
            break;
          }
      }
      cache.fetch(p);
    }
  }
};

TEST(SimulatorTest, TransientFetchEvictPairsAreNettedAndCounted) {
  const Instance inst = tiny_instance();
  TransientChurn policy;
  SimOptions opt;
  opt.record_schedule = true;
  const RunResult live = simulate(inst, policy, opt);
  EXPECT_GT(live.capture_cancellations, 0);
  // The netted schedule replays to the same final state; its cost can
  // only be at or below the live run's (the transient was metered live).
  const ReplayResult replay = replay_schedule(inst, live.schedule);
  EXPECT_TRUE(replay.feasible) << replay.infeasibility;
  EXPECT_EQ(replay.final_cache, live.final_cache);
  EXPECT_LE(replay.fetch_cost, live.fetch_cost + 1e-12);
  EXPECT_LE(replay.eviction_cost, live.eviction_cost + 1e-12);
}

}  // namespace
}  // namespace bac
