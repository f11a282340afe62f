// Tests for the fractional weighted paging substrate (BBN12a dynamics):
// feasibility invariants, cost accounting, competitiveness anchors, and
// bit-identity with the frozen full-scan twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
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

TEST(FractionalPaging, RejectsANonPositiveCacheSize) {
  // k = 0 would divide by zero for 1/k, and k < 0 would grow x towards
  // -inf; both fail at construction, before any request.
  const BlockMap blocks = BlockMap::contiguous(8, 2);
  for (const int k : {0, -3})
    EXPECT_THROW(FractionalWeightedPaging(blocks, k), std::invalid_argument)
        << "k=" << k;
  EXPECT_NO_THROW(FractionalWeightedPaging(blocks, 1));
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

/// Where a step's one-cost threshold g* (the least growth whose mass
/// fits) fell: at most 1, or within 2^-40 above 1, where y* = log g* is
/// tiny. Read from x before the step as the substrate computes it: the
/// cached mass over the pages with x < 1, and the mass at growth g over
/// every seen page, both ascending.
struct GrowthRegimes {
  int at_most_one = 0;
  int near_one = 0;
};

void classify_step(const std::vector<double>& before,
                   const std::vector<char>& seen, PageId p, int k,
                   GrowthRegimes& regimes) {
  const double inv_k = 1.0 / static_cast<double>(k);
  const auto page = [&](std::size_t q) { return static_cast<PageId>(q); };
  double cached = 0;
  for (std::size_t q = 0; q < before.size(); ++q)
    if (page(q) == p) cached += 1.0;
    else if (before[q] < 1.0) cached += 1.0 - before[q];
  if (!(cached > static_cast<double>(k))) return;  // no bisection
  const auto fits_at = [&](double g) {
    double mass = 0;
    for (std::size_t q = 0; q < before.size(); ++q)
      if (seen[q] && page(q) != p)
        mass += 1.0 - std::min(1.0, (before[q] + inv_k) * g - inv_k);
    return mass + 1.0 <= static_cast<double>(k);
  };
  if (fits_at(1.0)) ++regimes.at_most_one;
  else if (fits_at(1.0 + 0x1p-40)) ++regimes.near_one;
}

/// Replay `inst` through the production substrate and its frozen twin;
/// fail on the first step where x or a cost accumulator differs in any
/// bit, or where moved() is not exactly the ascending list of pages
/// whose x changed. Returns how many times a page that was not requested
/// left x = 1 (only the walk over every seen page can do that), and adds
/// each bisecting step's g* regime to `regimes`. With `check_counts`, also
/// fails when the bracket left most questions to be evaluated.
int expect_matches_twin(const Instance& inst, const std::string& label,
                        GrowthRegimes* regimes = nullptr,
                        bool check_counts = true) {
  FractionalWeightedPaging fast(inst.blocks, inst.k);
  verify::ReferenceFractionalWeightedPaging twin(inst);
  std::vector<double> before = twin.x();
  std::vector<char> seen(before.size(), 0);
  int left_one = 0;
  for (Time t = 1; t <= inst.horizon(); ++t) {
    const PageId p = inst.request_at(t);
    seen[static_cast<std::size_t>(p)] = 1;
    if (regimes) classify_step(before, seen, p, inst.k, *regimes);
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
  // The bracket decided most questions: with one cost, fewer std::exp
  // readings than questions; with several, at most half as many mass
  // evaluations.
  const FractionalWeightedPaging::Counts& c = fast.counts();
  if (check_counts && c.bisections > 100) {
    if (c.exp_reads > 0) {
      EXPECT_LT(c.exp_reads, c.halvings) << label;
    } else {
      EXPECT_LT(2 * c.mass_evals, c.halvings) << label;
    }
  }
  return left_one;
}

TEST(FractionalPaging, MatchesFrozenTwinBitForBit) {
  // k = 11, 12, 34 and 48 have fl(fl(1 + 1/k) - 1/k) < 1: a step whose
  // root s is tiny moves pages at x = 1 too, through the walk over every
  // seen page rather than the x < 1 list. The other k never take it.
  // Instances with one block cost decide the halvings outside a bracket
  // certified by two std::exp readings and compare the rest with the
  // exact growth threshold g*; the dyadic, decimal and log-uniform cells
  // have several costs and evaluate the mass inside a bracket certified
  // by two evaluations at bounds on every class's growth.
  const char* trace_names[] = {"zipf", "uniform", "blocklocal", "scan",
                               "cycle"};
  int left_one_at_fallback_k = 0;
  const auto run_cell = [&](int k, int beta, const auto& costs_of,
                            const std::string& cost_name, int shape, Time T,
                            Xoshiro256pp& rng, int min_pages = 0,
                            GrowthRegimes* regimes = nullptr,
                            bool check_counts = true) {
    const int n = std::max(k + 2 * beta + 6, min_pages);
    const BlockMap blocks = BlockMap::contiguous_weighted(
        n, beta, costs_of((n + beta - 1) / beta));
    std::vector<PageId> req;
    if (shape == 0) req = zipf_trace(n, T, 0.9, rng.substream(2));
    if (shape == 1) req = uniform_trace(n, T, rng.substream(2));
    if (shape == 2)
      req = block_local_trace(blocks, T, 0.75, 0.9, rng.substream(2));
    if (shape == 3) req = scan_trace(n, T);
    if (shape == 4) {
      // Every page once, then a cycle over k of them: the other pages
      // grow to x = 1 and the cycle's x shrink towards 0, so each step
      // overflows by less, down to a few ulps (g* next to 1, and below).
      for (Time t = 0; t < T; ++t)
        req.push_back(static_cast<PageId>(t < n ? t : t % k));
    }
    const Instance inst{blocks, std::move(req), k};
    const int left_one = expect_matches_twin(
        inst,
        "k=" + std::to_string(k) + " beta=" + std::to_string(beta) + " " +
            cost_name + " " + trace_names[shape] + " T=" + std::to_string(T),
        regimes, check_counts);
    if (k == 11 || k == 12 || k == 34 || k == 48)
      left_one_at_fallback_k += left_one;
    else
      EXPECT_EQ(left_one, 0) << "k=" << k << " has no fallback";
  };

  enum CostKind { kUnit, kDyadic, kLogUniform, kDecimal };
  const char* cost_names[] = {"unit", "dyadic", "log-uniform", "decimal"};
  const auto costs_for = [](CostKind kind, Xoshiro256pp& rng) {
    return [kind, &rng](int n_blocks) {
      std::vector<Cost> costs(static_cast<std::size_t>(n_blocks), 1.0);
      for (int b = 0; b < n_blocks; ++b) {
        const auto i = static_cast<std::size_t>(b);
        if (kind == kDyadic) costs[i] = std::ldexp(1.0, b % 4);
        if (kind == kDecimal)
          costs[i] = b % 3 == 0 ? 0.1 : b % 3 == 1 ? 0.3 : 0.7;
      }
      if (kind == kLogUniform)
        costs = log_uniform_costs(n_blocks, 16.0, rng.substream(1));
      return costs;
    };
  };
  int trial = 0;
  for (int k : {1, 2, 3, 11, 12, 32, 34, 48}) {
    for (int beta : {1, 3, 8}) {
      for (CostKind kind : {kUnit, kDyadic, kLogUniform}) {
        ++trial;
        Xoshiro256pp rng(300 + static_cast<std::uint64_t>(trial));
        // Each (k, beta, cost) cell gets one trace shape, rotating so all
        // four meet every k and every cost model.
        run_cell(k, beta, costs_for(kind, rng), cost_names[kind], trial % 4,
                 160, rng);
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

  // One cost on cycles, where g* comes within a few ulps of 1 (y* tiny)
  // and, once the overflow is rounding alone, at or below 1.
  GrowthRegimes regimes;
  for (int k : {2, 3, 4, 11, 12}) {
    for (double c : {1.0, 0.1}) {
      ++trial;
      Xoshiro256pp rng(300 + static_cast<std::uint64_t>(trial));
      const auto costs_of = [c](int n_blocks) {
        return std::vector<Cost>(static_cast<std::size_t>(n_blocks), c);
      };
      run_cell(k, trial % 2 == 0 ? 1 : 3, costs_of, "one-class c=" + g17(c),
               4, 3000, rng, 0, &regimes);
    }
  }
  EXPECT_GT(regimes.near_one, 0) << "no step had g* within 2^-40 above 1";
  EXPECT_GT(regimes.at_most_one, 0) << "no step had g* at or below 1";

  // Several costs on long traces, so each cell bisects thousands of times
  // through the mass bracket: log-uniform over at least 64 blocks (64
  // distinct costs), decimal costs {0.1, 0.3, 0.7} and dyadic costs.
  for (int k : {3, 11, 12, 32, 34, 48}) {
    for (CostKind kind : {kLogUniform, kDecimal, kDyadic}) {
      ++trial;
      Xoshiro256pp rng(300 + static_cast<std::uint64_t>(trial));
      const int beta = kind == kLogUniform ? 1 : trial % 2 == 0 ? 3 : 8;
      run_cell(k, beta, costs_for(kind, rng), cost_names[kind],
               trial % 2 == 0 ? 0 : 2, 3000, rng,
               kind == kLogUniform ? 64 : 0);
    }
  }

  // Several costs far apart, so a class's std::exp reading overflows to
  // +inf (2^-1000) or the doubling loop carries s far up (2^20, 1e30)
  // while the bracket's readings bound every class's growth. Bits only:
  // at 1e-30 and 1e30 one class saturates long before the other moves,
  // so the mass sits at exactly k over a plateau where no end can be
  // certified and the questions there are evaluated.
  for (int k : {2, 11, 34}) {
    for (const std::vector<double>& spread :
         {std::vector<double>{std::ldexp(1.0, -20), 1.0, std::ldexp(1.0, 20)},
          std::vector<double>{1e-30, 1e30},
          std::vector<double>{std::ldexp(1.0, -1000), 3.0}}) {
      ++trial;
      Xoshiro256pp rng(300 + static_cast<std::uint64_t>(trial));
      const auto costs_of = [&spread](int n_blocks) {
        std::vector<Cost> costs(static_cast<std::size_t>(n_blocks));
        for (std::size_t b = 0; b < costs.size(); ++b)
          costs[b] = spread[b % spread.size()];
        return costs;
      };
      run_cell(k, 2, costs_of, "spread c=" + g17(spread.front()), 0, 2000,
               rng, 40, nullptr, false);
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
