// Tests for Algorithm 1 (deterministic k-competitive online, Theorem 3.3):
// feasibility, dual feasibility, primal <= k * dual, dual <= OPT, the
// expected advantage over block-oblivious baselines, bit-for-bit agreement
// with the frozen rescanning version (also on hundreds of blocks and up to
// the last step the kernel serves), exact pins, the exported counters, and
// clones that outlive their source.
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

#include "algs/policies/classical.hpp"
#include "algs/det_online.hpp"
#include "algs/opt.hpp"
#include "core/simulator.hpp"
#include "core/step_kernel.hpp"
#include "obs/metrics.hpp"
#include "trace/adversarial.hpp"
#include "trace/generators.hpp"
#include "verify/reference_policies.hpp"

namespace bac {
namespace {

TEST(DetOnline, FeasibleOnRandomTraces) {
  Xoshiro256pp rng(51);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = make_instance(
        24, 4, 8, zipf_trace(24, 400, 0.8, rng.substream(trial)));
    DetOnlineBlockAware alg;
    const RunResult r = simulate(inst, alg);  // throws on violation
    EXPECT_EQ(r.violations, 0);
    EXPECT_DOUBLE_EQ(r.eviction_cost, alg.primal_cost())
        << "meter and internal accounting must agree";
  }
}

TEST(DetOnline, DualIsFeasible) {
  Xoshiro256pp rng(52);
  const Instance inst = make_instance(
      18, 3, 6, zipf_trace(18, 600, 1.0, rng));
  DetOnlineBlockAware alg;
  simulate(inst, alg);
  EXPECT_LE(alg.max_load_ratio(), 1.0 + 1e-9)
      << "some dual constraint got violated";
}

TEST(DetOnline, PrimalAtMostKTimesDual) {
  Xoshiro256pp rng(53);
  for (int trial = 0; trial < 6; ++trial) {
    const int k = 4 + 2 * trial;
    const Instance inst = make_instance(
        3 * k, 2, k, uniform_trace(3 * k, 500, rng.substream(trial)));
    DetOnlineBlockAware alg;
    simulate(inst, alg);
    if (alg.dual_objective() > 0) {
      EXPECT_LE(alg.primal_cost(),
                static_cast<double>(k) * alg.dual_objective() + 1e-6)
          << "Theorem 3.3 bound violated at k=" << k;
    } else {
      EXPECT_DOUBLE_EQ(alg.primal_cost(), 0.0);
    }
  }
}

TEST(DetOnline, DualLowerBoundsExactOpt) {
  Xoshiro256pp rng(54);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = make_instance(
        8, 2, 4, uniform_trace(8, 30, rng.substream(trial)));
    DetOnlineBlockAware alg;
    simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_LE(alg.dual_objective(), opt.cost + 1e-6)
        << "dual must certify a valid lower bound (trial " << trial << ")";
  }
}

TEST(DetOnline, WeightedDualLowerBoundsOpt) {
  Xoshiro256pp rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    auto costs = log_uniform_costs(4, 8.0, rng.substream(100 + trial));
    Instance inst = make_weighted_instance(
        8, 2, 4, uniform_trace(8, 30, rng.substream(trial)), std::move(costs));
    DetOnlineBlockAware alg;
    simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_LE(alg.dual_objective(), opt.cost + 1e-6);
    EXPECT_LE(alg.max_load_ratio(), 1.0 + 1e-9);
  }
}

TEST(DetOnline, BeatsLruEvictionCostWithLargeBlocks) {
  // Block-local workload with beta = 8: batching should win by a clear
  // factor in the eviction model.
  const BlockMap blocks = BlockMap::contiguous(128, 8);
  auto req = block_local_trace(blocks, 8000, 0.8, 0.9, Xoshiro256pp(56));
  Instance inst{blocks, std::move(req), 32};
  DetOnlineBlockAware alg;
  LruPolicy lru;
  const double ba = simulate(inst, alg).eviction_cost;
  const double classical = simulate(inst, lru).eviction_cost;
  EXPECT_LT(ba, classical * 0.6)
      << "Algorithm 1 should batch far better than LRU";
}

TEST(DetOnline, NoEvictionsWhenEverythingFits) {
  const Instance inst = make_instance(6, 2, 6, scan_trace(6, 30));
  DetOnlineBlockAware alg;
  const RunResult r = simulate(inst, alg);
  EXPECT_DOUBLE_EQ(r.eviction_cost, 0.0);
  EXPECT_DOUBLE_EQ(alg.dual_objective(), 0.0);
}

TEST(DetOnline, BetaOneBehavesLikeWeightedPaging) {
  // With singleton blocks the model is classic weighted paging; Algorithm 1
  // must stay k-competitive against exact OPT.
  Xoshiro256pp rng(57);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 8, k = 4;
    Instance inst = make_instance(n, 1, k,
                                  zipf_trace(n, 40, 0.6, rng.substream(trial)));
    DetOnlineBlockAware alg;
    const RunResult r = simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    if (opt.cost > 0) {
      EXPECT_LE(r.eviction_cost, static_cast<double>(k) * opt.cost + 1e-6);
    }
  }
}

TEST(DetOnline, RatioToOptWithinKOnSmallInstances) {
  Xoshiro256pp rng(58);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 9, beta = 3, k = 3 + static_cast<int>(rng.below(3));
    Instance inst = make_instance(
        n, beta, k, uniform_trace(n, 40, rng.substream(trial)));
    DetOnlineBlockAware alg;
    const RunResult r = simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    if (opt.cost > 1e-9)
      EXPECT_LE(r.eviction_cost / opt.cost, static_cast<double>(k) + 1e-6)
          << "k-competitiveness violated (trial " << trial << ")";
    else
      EXPECT_DOUBLE_EQ(r.eviction_cost, 0.0);
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Run both through diff_policy_runs, then compare the certificates bit
/// for bit. Returns the twin after its run.
std::unique_ptr<verify::ReferenceDetOnline> expect_matches_twin(
    const Instance& inst, const std::string& label) {
  DetOnlineBlockAware alg;
  auto twin = std::make_unique<verify::ReferenceDetOnline>();
  for (const std::string& d :
       verify::diff_policy_runs(inst, alg, *twin, 1, label))
    ADD_FAILURE() << d;
  EXPECT_EQ(bits(alg.dual_objective()), bits(twin->dual_objective()))
      << label << ": dual " << g17(alg.dual_objective())
      << " != " << g17(twin->dual_objective());
  EXPECT_EQ(bits(alg.max_load_ratio()), bits(twin->max_load_ratio()))
      << label << ": max load ratio " << g17(alg.max_load_ratio())
      << " != " << g17(twin->max_load_ratio());
  EXPECT_EQ(bits(alg.primal_cost()), bits(twin->primal_cost())) << label;
  EXPECT_EQ(alg.flushes(), twin->flushes()) << label;
  return twin;
}

TEST(DetOnline, MatchesFrozenTwinBitForBit) {
  // One entry per cached page against the rescan of every tracked entry:
  // same flushes (ties to the lowest block id), same dual bits.
  enum CostKind { kUnit, kDyadic, kLogUniform };
  const char* cost_names[] = {"unit", "dyadic", "log-uniform"};
  const char* trace_names[] = {"zipf", "uniform", "blocklocal", "phased",
                               "scan"};
  int trial = 0;
  long long flushes = 0;
  for (int beta : {1, 3, 8}) {
    const int n = 6 * beta + 7;
    const int n_blocks = (n + beta - 1) / beta;
    for (CostKind kind : {kUnit, kDyadic, kLogUniform}) {
      // k from beta up to k >= n (no overflow at all).
      for (int k : {beta, beta + 1, n / 2, n - 1, n, n + 2}) {
        ++trial;
        Xoshiro256pp rng(400 + static_cast<std::uint64_t>(trial));
        std::vector<Cost> costs(static_cast<std::size_t>(n_blocks), 1.0);
        if (kind == kDyadic)
          for (int b = 0; b < n_blocks; ++b)
            costs[static_cast<std::size_t>(b)] = std::ldexp(1.0, b % 4);
        if (kind == kLogUniform)
          costs = log_uniform_costs(n_blocks, 16.0, rng.substream(1));
        const BlockMap blocks =
            BlockMap::contiguous_weighted(n, beta, std::move(costs));
        // The shapes rotate so each meets every beta and cost model.
        const int shape = trial % 5;
        const Time T = 500;
        std::vector<PageId> req;
        if (shape == 0) req = zipf_trace(n, T, 0.9, rng.substream(2));
        if (shape == 1) req = uniform_trace(n, T, rng.substream(2));
        if (shape == 2)
          req = block_local_trace(blocks, T, 0.75, 0.9, rng.substream(2));
        if (shape == 3) req = phased_trace(n, T, 40, k + 2, rng.substream(2));
        if (shape == 4) req = scan_trace(n, T);
        const Instance inst{blocks, std::move(req), k};
        flushes += expect_matches_twin(
                       inst, "beta=" + std::to_string(beta) +
                                 " k=" + std::to_string(k) + " " +
                                 cost_names[kind] + " " + trace_names[shape])
                       ->flushes();
      }
    }
  }
  EXPECT_GT(flushes, 1000) << "the grid must overflow often";

  // Log-uniform costs where a tight load rounds past its block's cost, so
  // max_load_ratio() reads 1 + 2^-52 and depends on which entry it reads.
  for (std::uint64_t seed : {3, 4}) {
    Xoshiro256pp rng(seed);
    const BlockMap blocks = BlockMap::contiguous_weighted(
        48, 4, log_uniform_costs(12, 16.0, rng.substream(1)));
    const Instance inst{
        blocks, block_local_trace(blocks, 1000, 0.75, 0.9, rng.substream(2)),
        12};
    const auto twin =
        expect_matches_twin(inst, "rounding seed " + std::to_string(seed));
    EXPECT_GT(twin->max_load_ratio(), 1.0) << "seed " << seed;
  }
}

/// Serve `inst` through `alg` and the twin side by side, each on its own
/// kernel. After every step the two must agree on hit or miss, the
/// counters, flushes and the bits of the dual objective and
/// max_load_ratio(), and after every flush on the cached set.
void expect_lockstep_with_twin(const Instance& inst, DetOnlineBlockAware& alg,
                               const std::string& label) {
  verify::ReferenceDetOnline twin;
  StepKernel mine(inst, alg, 1);
  StepKernel theirs(inst, twin, 1);
  for (Time t = 1; t <= inst.horizon(); ++t) {
    const PageId p = inst.request_at(t);
    const long long flushes = alg.flushes();
    const bool hit = mine.serve(p);
    if (hit != theirs.serve(p) || mine.counters() != theirs.counters() ||
        alg.flushes() != twin.flushes() ||
        bits(alg.dual_objective()) != bits(twin.dual_objective()) ||
        bits(alg.max_load_ratio()) != bits(twin.max_load_ratio())) {
      ADD_FAILURE() << label << ": diverged at t=" << t << ": flushes "
                    << alg.flushes() << " vs " << twin.flushes() << ", dual "
                    << g17(alg.dual_objective()) << " vs "
                    << g17(twin.dual_objective()) << ", counters "
                    << mine.counters() << " vs " << theirs.counters();
      return;
    }
    if (alg.flushes() != flushes &&
        !std::all_of(mine.cache().pages().begin(), mine.cache().pages().end(),
                     [&](PageId q) { return theirs.cache().contains(q); })) {
      ADD_FAILURE() << label << ": flushed another block at t=" << t;
      return;
    }
  }
}

TEST(DetOnline, MatchesFrozenTwinOnManyBlocks) {
  // Block counts past 256 that are not powers of two, so the slack tree
  // has padded leaves, over 20k requests at k = n/8 and n/4: both
  // raise-free overflows and raises occur, and ties between equal slacks
  // must go to the lowest block id. Decimal costs (0.1, 0.3 and 0.7) make
  // blocks share a cost while their loads round, so a raise can tie or
  // reorder two slacks that differed before it.
  enum CostKind { kUnit, kDyadic, kLogUniform, kDecimal };
  const char* cost_names[] = {"unit", "dyadic", "log-uniform", "decimal"};
  const double kDecimalCosts[] = {0.1, 0.3, 0.7};
  const char* trace_names[] = {"zipf", "blocklocal", "uniform", "scan"};
  struct Shape {
    int beta;
    int n_blocks;
  };
  long long overflows = 0;
  long long raises = 0;
  int trial = 0;
  for (int s = 0; s < 2; ++s) {
    const Shape shape = s == 0 ? Shape{4, 301} : Shape{8, 513};
    const int n = shape.beta * shape.n_blocks;
    for (CostKind kind : {kUnit, kDyadic, kLogUniform, kDecimal}) {
      for (int half = 0; half < 2; ++half) {
        // The traces rotate so each meets every shape, cost model and k.
        const int trace = (s + kind + 2 * half) % 4;
        const int k = half == 0 ? n / 8 : n / 4;
        ++trial;
        Xoshiro256pp rng(900 + static_cast<std::uint64_t>(trial));
        std::vector<Cost> costs(static_cast<std::size_t>(shape.n_blocks), 1.0);
        if (kind == kDyadic)
          for (int b = 0; b < shape.n_blocks; ++b)
            costs[static_cast<std::size_t>(b)] = std::ldexp(1.0, b % 4);
        if (kind == kLogUniform)
          costs = log_uniform_costs(shape.n_blocks, 16.0, rng.substream(1));
        if (kind == kDecimal)
          for (int b = 0; b < shape.n_blocks; ++b)
            costs[static_cast<std::size_t>(b)] = kDecimalCosts[b % 3];
        const BlockMap blocks =
            BlockMap::contiguous_weighted(n, shape.beta, std::move(costs));
        const Time T = 20000;
        std::vector<PageId> req;
        if (trace == 0) req = zipf_trace(n, T, 0.9, rng.substream(2));
        if (trace == 1)
          req = block_local_trace(blocks, T, 0.75, 0.9, rng.substream(2));
        if (trace == 2) req = uniform_trace(n, T, rng.substream(2));
        if (trace == 3) req = scan_trace(n, T);
        const Instance inst{blocks, std::move(req), k};
        DetOnlineBlockAware alg;
        expect_lockstep_with_twin(
            inst, alg,
            "beta=" + std::to_string(shape.beta) + " k=" + std::to_string(k) +
                " " + cost_names[kind] + " " + trace_names[trace]);
        overflows += alg.flushes();
        raises += alg.raises();
      }
    }
  }
  EXPECT_GT(raises, 100) << "the grid must raise y";
  EXPECT_GT(overflows - raises, 10000)
      << "the grid must overflow without raising";
}

TEST(DetOnline, LastServedStepChoosesAsAtSmallTimes) {
  // The kernel's last step is t = 2^31 - 2, whose append computes
  // t + 1 = 2^31 - 1. The algorithm compares times only with each other
  // and with the initial m_B = 0, so a trace served at times shifted to
  // end there must make every choice it makes from t = 1.
  Xoshiro256pp rng(60);
  const BlockMap blocks = BlockMap::contiguous_weighted(
      48, 4, log_uniform_costs(12, 8.0, rng.substream(1)));
  const std::vector<PageId> req = zipf_trace(48, 400, 0.8, rng.substream(2));
  struct Step {
    std::vector<PageId> cache;
    long long flushes;
    long long raises;
    std::uint64_t dual;
    std::uint64_t ratio;
    bool operator==(const Step&) const = default;
  };
  const auto run = [&](Time first, std::size_t steps) {
    const Instance ctx{blocks, {}, 12};
    CacheSet cache(ctx.n_pages());
    CostMeter meter(ctx.blocks);
    CacheOps ops(ctx.blocks, cache, meter, ctx.k);
    DetOnlineBlockAware alg;
    alg.reset(ctx);
    std::vector<Step> out;
    for (std::size_t i = 0; i < steps; ++i) {
      const Time t = first + static_cast<Time>(i);
      meter.begin_step(t);
      alg.on_request(t, req[i], ops);
      std::vector<PageId> pages = cache.pages();
      std::sort(pages.begin(), pages.end());
      out.push_back({std::move(pages), alg.flushes(), alg.raises(),
                     bits(alg.dual_objective()), bits(alg.max_load_ratio())});
    }
    return out;
  };
  const std::vector<Step> low = run(1, req.size());
  // End at the last overflow, so the shifted run's final request, at the
  // kernel's last step, overflows.
  std::size_t steps = low.size();
  while (steps > 1 && low[steps - 1].flushes == low[steps - 2].flushes)
    --steps;
  ASSERT_GT(low[steps - 1].flushes, 50);
  ASSERT_GT(low[steps - 1].raises, 0);
  const std::vector<Step> high =
      run(StepKernel::kLastStep - static_cast<Time>(steps) + 1, steps);
  ASSERT_EQ(high.size(), steps);
  for (std::size_t i = 0; i < steps; ++i)
    ASSERT_EQ(high[i], low[i]) << "request " << i + 1 << " of " << steps;
}

TEST(DetOnline, ExportsFlushAndRaiseCounters) {
  const BlockMap blocks = BlockMap::contiguous(256, 8);
  const Instance inst{
      blocks, block_local_trace(blocks, 20000, 0.75, 0.9, Xoshiro256pp(61)),
      64};
  DetOnlineBlockAware alg;
  obs::MetricRegistry registry;
  SimOptions options;
  options.metrics = &registry;
  simulate(inst, alg, options);
  EXPECT_GT(alg.raises(), 0);
  EXPECT_LT(alg.raises(), alg.flushes());
  EXPECT_EQ(registry.counter("policy_block_flushes_total").value(),
            static_cast<std::uint64_t>(alg.flushes()));
  EXPECT_EQ(registry.counter("policy_dual_raises_total").value(),
            static_cast<std::uint64_t>(alg.raises()));
}

TEST(DetOnline, SeededRunsArePinned) {
  // Exact values captured before the one-entry-per-page rewrite: the
  // perfbench det shape (4096 pages, 512 blocks, k = 1024) and a
  // log-uniform weighted zipf trace.
  struct Pin {
    const char* label;
    Instance inst;
    const char* cost;
    const char* dual;
    const char* ratio;
    long long flushes;
  };
  const BlockMap paper = BlockMap::contiguous(4096, 8);
  Xoshiro256pp rng(152);
  auto costs = log_uniform_costs(48, 16.0, rng);
  const Pin pins[] = {
      {"paper det shape",
       Instance{paper,
                block_local_trace(paper, 20000, 0.75, 0.9, Xoshiro256pp(151)),
                1024},
       "1166", "6", "1", 1166},
      {"log-uniform",
       make_weighted_instance(192, 4, 32,
                              zipf_trace(192, 5000, 0.8, rng.substream(1)),
                              std::move(costs)),
       "7948.6042963214404", "482.14679067701695", "1", 1793},
  };
  for (const Pin& pin : pins) {
    DetOnlineBlockAware alg;
    const RunResult r = simulate(pin.inst, alg);
    EXPECT_EQ(r.violations, 0) << pin.label;
    EXPECT_EQ(g17(r.eviction_cost), pin.cost) << pin.label;
    EXPECT_EQ(g17(alg.primal_cost()), pin.cost) << pin.label;
    EXPECT_EQ(g17(alg.dual_objective()), pin.dual) << pin.label;
    EXPECT_EQ(g17(alg.max_load_ratio()), pin.ratio) << pin.label;
    EXPECT_EQ(alg.flushes(), pin.flushes) << pin.label;
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

TEST(DetOnline, CloneOutlivesItsSource) {
  // A clone owns its whole state: it may outlive the policy it was cloned
  // from, also mid-run, without a reset in between.
  Xoshiro256pp rng(59);
  auto costs = log_uniform_costs(16, 8.0, rng.substream(1));
  const Instance inst = make_weighted_instance(
      64, 4, 16, zipf_trace(64, 2000, 0.8, rng.substream(2)),
      std::move(costs));
  const Time half = inst.horizon() / 2;
  DetOnlineBlockAware fresh;
  const verify::RecordedRun want = verify::record_run(inst, fresh, 1);
  ASSERT_GT(fresh.flushes(), 0);

  auto source = std::make_unique<DetOnlineBlockAware>();
  simulate(inst, *source);
  std::unique_ptr<OnlinePolicy> clone = source->clone();
  source.reset();
  const verify::RecordedRun got = verify::record_run(inst, *clone, 1);
  EXPECT_EQ(g17(got.eviction_cost), g17(want.eviction_cost));
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_FALSE(want.final_cache.empty());
  EXPECT_EQ(got.final_cache, want.final_cache);

  // Mid-run: the clone takes over the second half of the trace.
  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  CacheOps ops(inst.blocks, cache, meter, inst.k);
  source = std::make_unique<DetOnlineBlockAware>();
  source->reset(inst);
  serve(inst, *source, ops, meter, 1, half);
  clone = source->clone();
  source.reset();
  serve(inst, *clone, ops, meter, half + 1, inst.horizon());
  EXPECT_EQ(g17(meter.eviction_cost()), g17(want.eviction_cost));
  const auto& det = dynamic_cast<const DetOnlineBlockAware&>(*clone);
  EXPECT_EQ(bits(det.dual_objective()), bits(fresh.dual_objective()));
  EXPECT_EQ(bits(det.max_load_ratio()), bits(fresh.max_load_ratio()));
  EXPECT_EQ(det.flushes(), fresh.flushes());
}

}  // namespace
}  // namespace bac
