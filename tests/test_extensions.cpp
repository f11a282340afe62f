// Tests for the extension modules: the dual-feasibility audit harness,
// schedule capture, GreedyFlush, and the online threshold-bicriteria
// policy.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "algs/det_online.hpp"
#include "algs/dual_verifier.hpp"
#include "algs/greedy_flush.hpp"
#include "algs/threshold_bicriteria.hpp"
#include "core/simulator.hpp"
#include "trace/generators.hpp"
#include "verify/reference_policies.hpp"

namespace bac {
namespace {

TEST(DualVerifier, AuditsAlgorithm1OnRandomInstances) {
  Xoshiro256pp rng(201);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = make_instance(
        12, 3, 4, zipf_trace(12, 150, 0.9, rng.substream(trial)));
    DetOnlineBlockAware alg;
    alg.enable_event_log();
    simulate(inst, alg);
    const DualAudit audit = audit_dual_feasibility(inst, alg.event_log());
    EXPECT_TRUE(audit.feasible(1e-9))
        << "constraint (" << audit.worst_block << "," << audit.worst_time
        << ") ratio " << audit.max_load_ratio << " (trial " << trial << ")";
    EXPECT_NEAR(audit.objective, alg.dual_objective(), 1e-9)
        << "event log must reproduce the dual objective";
  }
}

TEST(DualVerifier, AuditsWeightedInstances) {
  // The weighted regression that originally exposed the tracking bug.
  Xoshiro256pp rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    auto costs = log_uniform_costs(4, 8.0, rng.substream(100 + trial));
    Instance inst = make_weighted_instance(
        8, 2, 4, uniform_trace(8, 30, rng.substream(trial)), std::move(costs));
    DetOnlineBlockAware alg;
    alg.enable_event_log();
    simulate(inst, alg);
    const DualAudit audit = audit_dual_feasibility(inst, alg.event_log());
    EXPECT_TRUE(audit.feasible(1e-9)) << "trial " << trial;
  }
}

TEST(DualVerifier, DetectsFabricatedInfeasibility) {
  // Feed a corrupted log (doubled deltas) and expect the audit to flag it.
  Xoshiro256pp rng(202);
  const Instance inst = make_instance(10, 2, 4,
                                      uniform_trace(10, 60, rng));
  DetOnlineBlockAware alg;
  alg.enable_event_log();
  simulate(inst, alg);
  auto events = alg.event_log();
  ASSERT_FALSE(events.empty());
  for (auto& ev : events) ev.delta *= 3.0;
  const DualAudit audit = audit_dual_feasibility(inst, events);
  EXPECT_FALSE(audit.feasible(1e-9));
}

TEST(ScheduleCapture, ReplayMatchesLiveRun) {
  Xoshiro256pp rng(203);
  const Instance inst = make_instance(16, 4, 6,
                                      zipf_trace(16, 300, 0.8, rng));
  DetOnlineBlockAware alg;
  SimOptions opt;
  opt.record_schedule = true;
  const RunResult live = simulate(inst, alg, opt);
  const ReplayResult replay = replay_schedule(inst, live.schedule);
  EXPECT_TRUE(replay.feasible) << replay.infeasibility;
  EXPECT_DOUBLE_EQ(replay.eviction_cost, live.eviction_cost);
  EXPECT_DOUBLE_EQ(replay.fetch_cost, live.fetch_cost);
}

TEST(ScheduleCapture, WorksForClassicalPolicies) {
  Xoshiro256pp rng(204);
  const Instance inst = make_instance(12, 2, 5,
                                      uniform_trace(12, 200, rng));
  GreedyFlushPolicy alg;
  SimOptions opt;
  opt.record_schedule = true;
  const RunResult live = simulate(inst, alg, opt);
  const ReplayResult replay = replay_schedule(inst, live.schedule);
  EXPECT_TRUE(replay.feasible);
  EXPECT_DOUBLE_EQ(replay.eviction_cost, live.eviction_cost);
}

TEST(GreedyFlush, FeasibleAndBatches) {
  Xoshiro256pp rng(205);
  const BlockMap blocks = BlockMap::contiguous(64, 8);
  auto req = block_local_trace(blocks, 4000, 0.8, 0.9, rng);
  Instance inst{blocks, std::move(req), 16};
  GreedyFlushPolicy alg;
  const RunResult r = simulate(inst, alg);
  EXPECT_EQ(r.violations, 0);
  ASSERT_GT(r.evicted_pages, 0);
  // Greedy picks big blocks: several pages per eviction event on average.
  EXPECT_GE(static_cast<double>(r.evicted_pages) /
                static_cast<double>(r.evict_block_events),
            2.0);
}

TEST(GreedyFlush, PrefersCheapBlocksUnderWeights) {
  // One expensive block and one cheap block, both fully cached; greedy
  // must flush the cheap one.
  Instance inst = make_weighted_instance(
      6, 3, 6, {0, 1, 2, 3, 4, 5}, {100.0, 1.0});
  inst.k = 4;
  // requests fill both blocks (capacity forces flushes at t=5,6).
  GreedyFlushPolicy alg;
  const RunResult r = simulate(inst, alg);
  EXPECT_EQ(r.violations, 0);
  EXPECT_LT(r.eviction_cost, 100.0) << "the expensive block must survive";
}

TEST(ThresholdBicriteria, FetchModeFeasibleAndBounded) {
  Xoshiro256pp rng(206);
  for (int k : {8, 16}) {
    const Instance inst = make_instance(
        4 * k, 4, k, zipf_trace(4 * k, 1000, 0.9, rng.substream(k)));
    ThresholdBicriteriaPolicy alg(ThresholdBicriteriaPolicy::Mode::Fetching);
    const RunResult r = simulate(inst, alg);  // audited: fits within k
    EXPECT_EQ(r.violations, 0);
    // Theorem 4.1 inheritance: cost <= 2 x fractional block fetch cost of
    // the internal half-cache fractional solution.
    EXPECT_LE(r.fetch_cost, 2.0 * alg.fractional_block_fetch() + 1e-6);
  }
}

TEST(ThresholdBicriteria, EvictionModeFeasible) {
  Xoshiro256pp rng(207);
  const Instance inst = make_instance(48, 4, 12,
                                      zipf_trace(48, 800, 0.9, rng));
  ThresholdBicriteriaPolicy alg(ThresholdBicriteriaPolicy::Mode::Eviction);
  const RunResult r = simulate(inst, alg);
  EXPECT_EQ(r.violations, 0);
  EXPECT_GT(r.eviction_cost, 0.0);
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The paper's shape (n = 256, beta = 8, k = 64: h = 32) and a weighted
/// trace at k = 24, whose h = 12 takes the fractional substrate's walk
/// over every seen page on some steps.
Instance paper_shape() {
  const BlockMap blocks = BlockMap::contiguous(256, 8);
  return Instance{
      blocks, block_local_trace(blocks, 3000, 0.75, 0.9, Xoshiro256pp(141)),
      64};
}
Instance weighted_h12(Time T) {
  Xoshiro256pp rng(142);
  auto costs = log_uniform_costs(24, 16.0, rng);
  return make_weighted_instance(
      96, 4, 24, zipf_trace(96, T, 0.9, rng.substream(1)), std::move(costs));
}

TEST(ThresholdBicriteria, BothModesMatchFrozenTwin) {
  // The policy scans only the pages whose x moved; the twin scans every
  // page and runs the full-scan substrate. Runs must agree in every cost,
  // counter and step of the schedule, and in the substrate's cost.
  Xoshiro256pp rng(211);
  std::vector<BlockId> page_to_block(40);
  for (int q = 0; q < 40; ++q)
    page_to_block[static_cast<std::size_t>(q)] = (q * 3 + q / 7) % 7;
  const BlockMap interleaved(std::move(page_to_block),
                             log_uniform_costs(7, 8.0, rng.substream(1)));
  const std::vector<std::pair<std::string, Instance>> instances = {
      {"zipf k=16",
       make_instance(64, 4, 16, zipf_trace(64, 600, 0.9, rng.substream(2)))},
      {"scan k=12", make_instance(36, 3, 12, scan_trace(36, 600))},
      {"weighted k=24", weighted_h12(600)},
      {"interleaved k=10",
       Instance{interleaved, uniform_trace(40, 800, rng.substream(3)), 10}},
  };
  using Mode = ThresholdBicriteriaPolicy::Mode;
  for (Mode mode : {Mode::Fetching, Mode::Eviction}) {
    for (const auto& [label, inst] : instances) {
      ThresholdBicriteriaPolicy alg(mode);
      verify::ReferenceThresholdBicriteria twin(mode);
      for (const std::string& d :
           verify::diff_policy_runs(inst, alg, twin, 1, label))
        ADD_FAILURE() << alg.name() << ": " << d;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(alg.fractional_block_fetch()),
                std::bit_cast<std::uint64_t>(twin.fractional_block_fetch()))
          << alg.name() << " " << label;
    }
  }
}

TEST(ThresholdBicriteria, SeededRunsArePinned) {
  // Exact costs of both modes and of their fractional substrate. Golden
  // pins integral costs only and never sees the substrate's accumulator.
  struct Pin {
    const char* label;
    Instance inst;
    const char* eviction;
    const char* fetch;
    const char* fractional;
  };
  const Pin pins[] = {
      {"paper shape", paper_shape(), "1041", "1484", "1534.1623317196429"},
      {"weighted h=12", weighted_h12(3000), "9496.2615572682571",
       "9763.0574534292227", "10279.370757870141"},
  };
  using Mode = ThresholdBicriteriaPolicy::Mode;
  for (Mode mode : {Mode::Fetching, Mode::Eviction}) {
    for (const Pin& pin : pins) {
      ThresholdBicriteriaPolicy alg(mode);
      const RunResult r = simulate(pin.inst, alg);
      EXPECT_EQ(r.violations, 0) << alg.name() << " " << pin.label;
      EXPECT_EQ(g17(r.eviction_cost), pin.eviction)
          << alg.name() << " " << pin.label;
      EXPECT_EQ(g17(r.fetch_cost), pin.fetch) << alg.name() << " " << pin.label;
      EXPECT_EQ(g17(alg.fractional_block_fetch()), pin.fractional)
          << alg.name() << " " << pin.label;
    }
  }
}

/// Serve t = from..to of `inst` through `policy` on the given cache.
void serve(const Instance& inst, OnlinePolicy& policy, CacheOps& ops,
           CostMeter& meter, Time from, Time to) {
  for (Time t = from; t <= to; ++t) {
    meter.begin_step(t);
    policy.on_request(t, inst.request_at(t), ops);
  }
}

TEST(ThresholdBicriteria, CloneOutlivesItsSource) {
  // A clone owns its whole state: it may outlive the policy it was cloned
  // from, also mid-run, without a reset in between.
  const Instance inst = weighted_h12(800);
  const Time half = inst.horizon() / 2;
  using Mode = ThresholdBicriteriaPolicy::Mode;
  for (Mode mode : {Mode::Fetching, Mode::Eviction}) {
    ThresholdBicriteriaPolicy fresh(mode);
    const RunResult want = simulate(inst, fresh);

    auto source = std::make_unique<ThresholdBicriteriaPolicy>(mode);
    simulate(inst, *source);
    std::unique_ptr<OnlinePolicy> clone = source->clone();
    source.reset();
    const RunResult got = simulate(inst, *clone);
    EXPECT_EQ(g17(got.eviction_cost), g17(want.eviction_cost));
    EXPECT_EQ(g17(got.fetch_cost), g17(want.fetch_cost));
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.final_cache, want.final_cache);

    // Mid-run: the clone takes over the second half of the trace.
    CacheSet cache(inst.n_pages());
    CostMeter meter(inst.blocks);
    CacheOps ops(inst.blocks, cache, meter, inst.k);
    source = std::make_unique<ThresholdBicriteriaPolicy>(mode);
    source->reset(inst);
    serve(inst, *source, ops, meter, 1, half);
    clone = source->clone();
    source.reset();
    serve(inst, *clone, ops, meter, half + 1, inst.horizon());
    EXPECT_EQ(g17(meter.eviction_cost()), g17(want.eviction_cost));
    EXPECT_EQ(g17(meter.fetch_cost()), g17(want.fetch_cost));
  }
}

}  // namespace
}  // namespace bac
