// Tests for the extension modules: the dual-feasibility audit harness,
// schedule capture, GreedyFlush, and the online threshold-bicriteria
// policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algs/det_online.hpp"
#include "algs/greedy_flush.hpp"
#include "algs/policies/fractional_paging.hpp"
#include "algs/threshold_bicriteria.hpp"
#include "core/simulator.hpp"
#include "core/step_kernel.hpp"
#include "trace/generators.hpp"
#include "verify/dual_verifier.hpp"
#include "verify/gen.hpp"
#include "verify/reference_policies.hpp"

namespace bac {
namespace {

// The audit reads the event log of Algorithm 1's frozen twin, which
// tests/test_det_online.cpp holds to DetOnlineBlockAware's flushes and
// dual objective bit for bit.
TEST(DualVerifier, AuditsAlgorithm1OnRandomInstances) {
  Xoshiro256pp rng(201);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = make_instance(
        12, 3, 4, zipf_trace(12, 150, 0.9, rng.substream(trial)));
    verify::ReferenceDetOnline alg;
    alg.enable_event_log();
    simulate(inst, alg);
    const verify::DualAudit audit =
        verify::audit_dual_feasibility(inst, alg.event_log());
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
    verify::ReferenceDetOnline alg;
    alg.enable_event_log();
    simulate(inst, alg);
    const verify::DualAudit audit =
        verify::audit_dual_feasibility(inst, alg.event_log());
    EXPECT_TRUE(audit.feasible(1e-9)) << "trial " << trial;
  }
}

TEST(DualVerifier, DetectsFabricatedInfeasibility) {
  // Feed a corrupted log (tripled deltas) and expect the audit to flag it.
  Xoshiro256pp rng(202);
  const Instance inst = make_instance(10, 2, 4,
                                      uniform_trace(10, 60, rng));
  verify::ReferenceDetOnline alg;
  alg.enable_event_log();
  simulate(inst, alg);
  auto events = alg.event_log();
  ASSERT_FALSE(events.empty());
  for (auto& ev : events) ev.delta *= 3.0;
  const verify::DualAudit audit = verify::audit_dual_feasibility(inst, events);
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
  std::vector<std::pair<std::string, Instance>> instances;
  for (int k : {8, 16})
    instances.emplace_back(
        "zipf k=" + std::to_string(k),
        make_instance(4 * k, 4, k,
                      zipf_trace(4 * k, 1000, 0.9, rng.substream(k))));
  // Smoke-tier fuzz seeds with beta > floor(k/2): n = 8, beta = k = 7,
  // dyadic costs, and n = 6, beta = k = 5, unit costs, both scans. A
  // fractional cache raised to beta pages breaks the bound on both.
  for (std::uint64_t seed : {369, 747}) {
    verify::GeneratedInstance gi =
        verify::random_instance(seed, {.tiny = true});
    EXPECT_GT(gi.inst.blocks.beta(), std::max(1, gi.inst.k / 2))
        << gi.descriptor;
    instances.emplace_back(gi.descriptor, std::move(gi.inst));
  }
  using Mode = ThresholdBicriteriaPolicy::Mode;
  for (Mode mode : {Mode::Fetching, Mode::Eviction}) {
    for (const auto& [label, inst] : instances) {
      ThresholdBicriteriaPolicy alg(mode);
      const RunResult r = simulate(inst, alg);  // audited: fits within k
      EXPECT_EQ(r.violations, 0) << alg.name() << " " << label;
      // Theorem 4.1 inheritance: cost <= 2 x fractional block fetch cost
      // of the internal half-cache fractional solution.
      EXPECT_LE(r.fetch_cost, 2.0 * alg.fractional_block_fetch() + 1e-6)
          << alg.name() << " " << label;
    }
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
      // h = 2: the third request grows pages 3 and 1 to x = 1/2 exactly,
      // and they stay cached (bacfuzz smoke seed 396).
      {"x at 1/2 k=5",
       Instance{BlockMap::contiguous_weighted(5, 5, {14.933722437916984}),
                {3, 1, 2, 0, 3}, 5}},
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

TEST(ThresholdBicriteria, CachedSetIsTheHalfThreshold) {
  // Theorem 4.1's procedure on every instance, beta > floor(k/2)
  // included: beside a substrate whose cache is h = max(1, floor(k/2)),
  // both modes keep cached exactly the pages with x <= 1/2 after every
  // step, and they make the same moves.
  enum CostKind { kUnit, kDyadic, kLogUniform };
  const char* cost_names[] = {"unit", "dyadic", "log-uniform"};
  const char* trace_names[] = {"zipf", "blocklocal", "scan"};
  constexpr Time kT = 1500;
  using Mode = ThresholdBicriteriaPolicy::Mode;
  std::uint64_t trial = 0;
  for (int beta : {1, 3, 8}) {
    const int n = 8 * beta + 8;
    const int n_blocks = (n + beta - 1) / beta;
    for (int k : {1, beta, beta + 1, 2 * beta - 1, 2 * beta, n, n + 2}) {
      if (k < beta) continue;
      for (CostKind kind : {kUnit, kDyadic, kLogUniform}) {
        for (int shape = 0; shape < 3; ++shape) {
          Xoshiro256pp rng(400 + ++trial);
          std::vector<Cost> costs(static_cast<std::size_t>(n_blocks), 1.0);
          if (kind == kDyadic)
            for (int b = 0; b < n_blocks; ++b)
              costs[static_cast<std::size_t>(b)] = std::ldexp(1.0, b % 4);
          if (kind == kLogUniform)
            costs = log_uniform_costs(n_blocks, 16.0, rng.substream(1));
          const BlockMap blocks =
              BlockMap::contiguous_weighted(n, beta, std::move(costs));
          std::vector<PageId> req;
          if (shape == 0) req = zipf_trace(n, kT, 0.9, rng.substream(2));
          if (shape == 1)
            req = block_local_trace(blocks, kT, 0.75, 0.9, rng.substream(2));
          if (shape == 2) req = scan_trace(n, kT);
          const Instance inst{blocks, std::move(req), k};
          const std::string label =
              "beta=" + std::to_string(beta) + " k=" + std::to_string(k) +
              " " + cost_names[kind] + " " + trace_names[shape];

          for (Mode mode : {Mode::Fetching, Mode::Eviction}) {
            ThresholdBicriteriaPolicy alg(mode);
            StepKernel kernel(inst, alg, 1);  // audited: fits within k
            FractionalWeightedPaging frac(inst.blocks, std::max(1, k / 2));
            Time off_steps = 0;
            Time first_off = 0;
            for (Time t = 1; t <= inst.horizon(); ++t) {
              const PageId p = inst.request_at(t);
              kernel.serve(p);
              const std::vector<double>& x = frac.step(p);
              for (PageId q = 0; q < n; ++q) {
                if (kernel.cache().contains(q) !=
                    (x[static_cast<std::size_t>(q)] <= 0.5)) {
                  if (off_steps++ == 0) first_off = t;
                  break;
                }
              }
            }
            EXPECT_EQ(off_steps, 0)
                << alg.name() << " " << label
                << ": cache differs from {x <= 1/2}, first at t="
                << first_off;
          }
          ThresholdBicriteriaPolicy fetch(Mode::Fetching);
          ThresholdBicriteriaPolicy evict(Mode::Eviction);
          for (const std::string& d :
               verify::diff_policy_runs(inst, fetch, evict, 1, label))
            ADD_FAILURE() << "fetch vs evict: " << d;
        }
      }
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
