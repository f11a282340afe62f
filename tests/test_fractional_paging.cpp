// Tests for the fractional weighted paging substrate (BBN12a dynamics):
// feasibility invariants, cost accounting, competitiveness anchors, and
// bit-identity with the frozen full-scan twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "algs/policies/classical.hpp"
#include "algs/policies/fractional_paging.hpp"
#include "algs/opt.hpp"
#include "core/simulator.hpp"
#include "trace/adversarial.hpp"
#include "trace/generators.hpp"
#include "verify/reference_policies.hpp"

namespace bac {
namespace {

TEST(FractionalPaging, MaintainsInvariants) {
  Xoshiro256pp rng(41);
  const Instance inst = make_instance(10, 2, 4,
                                      uniform_trace(10, 200, rng));
  FractionalWeightedPaging fp(inst);
  for (Time t = 1; t <= inst.horizon(); ++t) {
    const PageId p = inst.request_at(t);
    const auto& x = fp.step(p);
    ASSERT_DOUBLE_EQ(x[static_cast<std::size_t>(p)], 0.0)
        << "requested page fully present";
    double cached = 0;
    for (std::size_t q = 0; q < x.size(); ++q) {
      ASSERT_GE(x[q], -1e-9);
      ASSERT_LE(x[q], 1.0 + 1e-9);
    }
    // Feasibility: total cached mass of *requested-so-far* pages <= k.
    // (Never-requested pages have x = 1 and contribute nothing.)
    for (std::size_t q = 0; q < x.size(); ++q) cached += 1.0 - x[q];
    ASSERT_LE(cached, static_cast<double>(inst.k) + 1e-6)
        << "fractional cache overflow at t=" << t;
  }
}

TEST(FractionalPaging, HitsAreFree) {
  const Instance inst = make_instance(4, 1, 2, {0, 0, 0, 0});
  FractionalWeightedPaging fp(inst);
  for (Time t = 1; t <= 4; ++t) fp.step(inst.request_at(t));
  EXPECT_NEAR(fp.classic_fetch_cost(), 1.0, 1e-9)
      << "one cold fetch, then hits";
}

TEST(FractionalPaging, CostWithinLogKOfOpt) {
  // O(log k)-competitive for classic weighted paging: check a generous
  // multiple on small instances against exact OPT (beta = 1: fetching
  // model coincides with classic paging).
  Xoshiro256pp rng(43);
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 8, k = 4;
    Instance inst = make_instance(n, 1, k,
                                  zipf_trace(n, 60, 0.7, rng.substream(trial)));
    FractionalWeightedPaging fp(inst);
    for (Time t = 1; t <= inst.horizon(); ++t) fp.step(inst.request_at(t));
    const OptResult opt = exact_opt_fetching(inst);
    ASSERT_TRUE(opt.exact);
    // ln(k)+1 ~ 2.4; allow constant slack 4x.
    EXPECT_LE(fp.classic_fetch_cost(), (std::log(k) + 1.0) * 4.0 * opt.cost + 2.0)
        << "trial " << trial;
  }
}

TEST(FractionalPaging, BlockCostNeverExceedsClassic) {
  Xoshiro256pp rng(44);
  const Instance inst = make_instance(12, 3, 5,
                                      zipf_trace(12, 150, 0.9, rng));
  FractionalWeightedPaging fp(inst);
  for (Time t = 1; t <= inst.horizon(); ++t) fp.step(inst.request_at(t));
  EXPECT_LE(fp.block_fetch_cost(), fp.classic_fetch_cost() + 1e-9)
      << "batching can only reduce cost";
  EXPECT_GE(fp.block_fetch_cost() * inst.blocks.beta(),
            fp.classic_fetch_cost() - 1e-9)
      << "batching saves at most a factor beta";
}

TEST(FractionalPaging, NemesisCostIsLogarithmic) {
  // On the (k+1)-page cyclic nemesis the fractional algorithm pays
  // Theta(log k) per round while any deterministic integral policy pays
  // Theta(k) per round.
  const int k = 32;
  const int rounds = 20;
  const Instance inst = cyclic_nemesis(k, 1, (k + 1) * rounds);
  FractionalWeightedPaging fp(inst);
  for (Time t = 1; t <= inst.horizon(); ++t) fp.step(inst.request_at(t));
  const double per_round = fp.classic_fetch_cost() / rounds;
  EXPECT_LT(per_round, 3.0 * (std::log(k) + 1.0));
  LruPolicy lru;
  const double lru_per_round =
      simulate(inst, lru).fetch_cost / rounds;
  EXPECT_GT(lru_per_round, static_cast<double>(k) * 0.9);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Replay `inst` through the production substrate and its frozen twin;
/// fail on the first step where x or a cost accumulator differs in any
/// bit, or where moved() is not exactly the ascending list of pages
/// whose x changed. Returns how many times a page that was not requested
/// left x = 1 (only the walk over every seen page can do that).
int expect_matches_twin(const Instance& inst, const std::string& label) {
  FractionalWeightedPaging fast(inst.blocks, inst.k);
  verify::ReferenceFractionalWeightedPaging twin(inst);
  std::vector<double> before = twin.x();
  int left_one = 0;
  for (Time t = 1; t <= inst.horizon(); ++t) {
    const PageId p = inst.request_at(t);
    const std::vector<double>& x = fast.step(p);
    const std::vector<double>& want = twin.step(p);
    std::vector<PageId> changed;
    for (std::size_t q = 0; q < x.size(); ++q) {
      if (bits(x[q]) != bits(want[q])) {
        ADD_FAILURE() << label << ": x[" << q << "] " << g17(x[q])
                      << " != " << g17(want[q]) << " at t=" << t;
        return left_one;
      }
      if (bits(want[q]) != bits(before[q]))
        changed.push_back(static_cast<PageId>(q));
      if (static_cast<PageId>(q) != p && before[q] >= 1.0 && want[q] < 1.0)
        ++left_one;
    }
    if (bits(fast.classic_fetch_cost()) != bits(twin.classic_fetch_cost()) ||
        bits(fast.block_fetch_cost()) != bits(twin.block_fetch_cost())) {
      ADD_FAILURE() << label << ": fetch costs "
                    << g17(fast.classic_fetch_cost()) << "/"
                    << g17(fast.block_fetch_cost()) << " != "
                    << g17(twin.classic_fetch_cost()) << "/"
                    << g17(twin.block_fetch_cost()) << " at t=" << t;
      return left_one;
    }
    if (fast.moved() != changed) {
      ADD_FAILURE() << label << ": moved() lists " << fast.moved().size()
                    << " pages, " << changed.size() << " changed, at t=" << t;
      return left_one;
    }
    before = want;
  }
  return left_one;
}

TEST(FractionalPaging, MatchesFrozenTwinBitForBit) {
  // k = 11, 12, 34 and 48 have fl(fl(1 + 1/k) - 1/k) < 1: a step whose
  // root s is tiny moves pages at x = 1 too, through the walk over every
  // seen page rather than the x < 1 list. The other k never take it.
  // Instances with one block cost decide every halving against the exact
  // growth threshold g*; the dyadic and log-uniform cells have several
  // costs and evaluate the mass instead.
  const char* trace_names[] = {"zipf", "uniform", "blocklocal", "scan"};
  int left_one_at_fallback_k = 0;
  const auto run_cell = [&](int k, int beta, const auto& costs_of,
                            const std::string& cost_name, int shape, Time T,
                            Xoshiro256pp& rng) {
    const int n = k + 2 * beta + 6;
    const BlockMap blocks = BlockMap::contiguous_weighted(
        n, beta, costs_of((n + beta - 1) / beta));
    std::vector<PageId> req;
    if (shape == 0) req = zipf_trace(n, T, 0.9, rng.substream(2));
    if (shape == 1) req = uniform_trace(n, T, rng.substream(2));
    if (shape == 2)
      req = block_local_trace(blocks, T, 0.75, 0.9, rng.substream(2));
    if (shape == 3) req = scan_trace(n, T);
    const Instance inst{blocks, std::move(req), k};
    const int left_one = expect_matches_twin(
        inst, "k=" + std::to_string(k) + " beta=" + std::to_string(beta) +
                  " " + cost_name + " " + trace_names[shape] +
                  " T=" + std::to_string(T));
    if (k == 11 || k == 12 || k == 34 || k == 48)
      left_one_at_fallback_k += left_one;
    else
      EXPECT_EQ(left_one, 0) << "k=" << k << " has no fallback";
  };

  enum CostKind { kUnit, kDyadic, kLogUniform };
  const char* cost_names[] = {"unit", "dyadic", "log-uniform"};
  int trial = 0;
  for (int k : {1, 2, 3, 11, 12, 32, 34, 48}) {
    for (int beta : {1, 3, 8}) {
      for (CostKind kind : {kUnit, kDyadic, kLogUniform}) {
        ++trial;
        Xoshiro256pp rng(300 + static_cast<std::uint64_t>(trial));
        const auto costs_of = [&](int n_blocks) {
          std::vector<Cost> costs(static_cast<std::size_t>(n_blocks), 1.0);
          if (kind == kDyadic)
            for (int b = 0; b < n_blocks; ++b)
              costs[static_cast<std::size_t>(b)] = std::ldexp(1.0, b % 4);
          if (kind == kLogUniform)
            costs = log_uniform_costs(n_blocks, 16.0, rng.substream(1));
          return costs;
        };
        // Each (k, beta, cost) cell gets one trace shape, rotating so all
        // four meet every k and every cost model.
        run_cell(k, beta, costs_of, cost_names[kind], trial % 4, 160, rng);
      }
    }
  }

  // One cost that is not 1, on long traces, so the threshold search runs
  // thousands of times per cell. g* does not depend on c, but the
  // bisection's s does: exp(s / c) overflows to +inf at s = 1 when
  // c = 2^-20, and the doubling loop carries s up to about 2^20 ln g*
  // when c = 2^20.
  for (int k : {1, 2, 3, 11, 12, 32, 34, 48}) {
    for (double c : {3.0, 0.1, std::ldexp(1.0, -20), std::ldexp(1.0, 20)}) {
      for (int shape : {0, 2, 3}) {
        ++trial;
        Xoshiro256pp rng(300 + static_cast<std::uint64_t>(trial));
        const int beta = trial % 3 == 0 ? 1 : trial % 3 == 1 ? 3 : 8;
        const auto costs_of = [c](int n_blocks) {
          return std::vector<Cost>(static_cast<std::size_t>(n_blocks), c);
        };
        run_cell(k, beta, costs_of, "one-class c=" + g17(c), shape, 3000,
                 rng);
      }
    }
  }
  EXPECT_GT(left_one_at_fallback_k, 0)
      << "the grid must exercise the walk over every seen page";
}

TEST(FractionalPaging, MatchesFrozenTwinOnNonContiguousBlocks) {
  // Block ids interleave across the page range, so ascending block order
  // differs from ascending page order in the block-batched cost.
  const int n = 40, n_blocks = 7;
  std::vector<BlockId> page_to_block(n);
  for (int q = 0; q < n; ++q)
    page_to_block[static_cast<std::size_t>(q)] = (q * 3 + q / 7) % n_blocks;
  Xoshiro256pp rng(350);
  const BlockMap blocks(std::move(page_to_block),
                        log_uniform_costs(n_blocks, 8.0, rng.substream(1)));
  for (int k : {5, 12}) {
    const Instance inst{blocks, zipf_trace(n, 400, 0.8, rng.substream(k)), k};
    expect_matches_twin(inst, "non-contiguous k=" + std::to_string(k));
  }
}

TEST(FractionalPaging, FetchCostsArePinned) {
  // Exact accumulators at the policy's half-size cache h: the paper's
  // shape (h = 32) and a weighted trace at h = 12, which takes the walk
  // over every seen page on some steps. Golden pins only integral costs
  // and never sees these.
  const BlockMap blocks = BlockMap::contiguous(256, 8);
  FractionalWeightedPaging paper(blocks, 32);
  for (PageId p : block_local_trace(blocks, 3000, 0.75, 0.9, Xoshiro256pp(141)))
    paper.step(p);
  EXPECT_EQ(g17(paper.classic_fetch_cost()), "1534.1623317196429");
  EXPECT_EQ(g17(paper.block_fetch_cost()), "1534.1623317196429");

  Xoshiro256pp rng(142);
  auto costs = log_uniform_costs(24, 16.0, rng);
  const Instance weighted = make_weighted_instance(
      96, 4, 12, zipf_trace(96, 3000, 0.9, rng.substream(1)), std::move(costs));
  FractionalWeightedPaging fp(weighted);
  for (Time t = 1; t <= weighted.horizon(); ++t)
    fp.step(weighted.request_at(t));
  EXPECT_EQ(g17(fp.classic_fetch_cost()), "10279.370757870141");
  EXPECT_EQ(g17(fp.block_fetch_cost()), "10279.370757870141");
}

}  // namespace
}  // namespace bac
