// Fractional weighted paging via the online primal-dual method of
// Bansal-Buchbinder-Naor [BBN12a].
//
// Maintains the fractional "missing mass" x_p in [0,1] per page; on a
// request x_{p_t} drops to 0, and while the fractional cache content
// sum_p (1 - x_p) exceeds k, all other pages' missing masses grow according
// to the multiplicative dynamics  dx_q ~ (x_q + 1/k) / c_q. This yields an
// O(log k)-competitive fractional solution for classic weighted paging.
//
// Role in this library: the canonical online source of feasible fractional
// solutions x for the fetching-model experiments — the Section 4.1
// deterministic bicriteria rounding consumes exactly such an x stream, and
// Theorem 4.4's derandomization argument treats x_p as the expectation of a
// randomized policy's indicator. Page costs are their block's cost.
//
// Each step bisects (100 halvings at most) for the growth time s at which
// the cache fits, asking at each halving whether
//   mass(s) = 1 + sum over seen q != p, ascending, of
//             1 - min(1, (x_q + 1/k) * exp(s / c_q) - 1/k)
// exceeds k. The result — x, both cost accumulators — is bit for bit that
// of the plain loop over every seen page (frozen as
// verify::ReferenceFractionalWeightedPaging), while one step costs
// O(pages with x < 1) per evaluated mass plus one std::exp per distinct
// block cost per evaluation, and most halvings cost one compare. Why that
// is exact:
//   - Pages at x = 1 are inert while a check holds. All pages at x = 1 of
//     one cost class c share the term 1 - min(1, (1 + 1/k) exp(s/c) - 1/k).
//     If that min is 1 for every class, each such term is +0.0; adding +0.0
//     leaves the running sum's bits unchanged and the page stays at exactly
//     1, so the walk covers only the pages with x < 1 (kept ascending).
//   - The check can fail. For about a quarter of all k (11, 12, 34, 48, ...)
//     fl(fl(1 + 1/k) - 1/k) < 1, so when s / c is tiny (exp(s/c) == 1) the
//     pages at x = 1 move to just below 1. Such evaluations walk every
//     seen page (also kept ascending), exactly as the plain loop does.
//   - exp(s / c) depends on the page only through c: one call per class
//     gives every page of the class the same bits.
//   - The mass never increases in any class's growth g_j = exp(s / c_j),
//     taken as a vector of doubles. Each term is a chain of correctly
//     rounded IEEE operations, each monotone: the product of g with
//     x_q + 1/k > 0, the subtraction of 1/k, the min with 1, and 1 minus
//     that min; the running sum is monotone in each addend. (A compiler
//     that fuses the multiply-subtract into one FMA keeps this: a
//     correctly rounded FMA is monotone in g too.) Taking the walk over
//     every seen page or only over x < 1 gives the same sum, as above.
//   - One cost class (unit costs, and any single-cost instance): the mass
//     depends on s only through g = exp(s / c), so for g* = the least
//     positive double with mass <= k at growth g*,
//     mass(s) > k  <=>  exp(s / c) < g*. The step finds g* once — a
//     Newton estimate on the real-valued mass, a gallop of 1, 2, 4, ...
//     ulps to a bracket, then a bisection of the bit patterns of positive
//     doubles, which order like their values — and then asks that
//     comparison instead of the mass.
//   - Every question is first put to a certified bracket
//     (util/certified_bracket.hpp), and only the questions strictly
//     between its ends are evaluated. Its one libm assumption is that
//     std::exp is within kExpUlps ulps of exp (kExpModel; a test samples
//     it against expl from y = -1 to exp's overflow point). One cost
//     class: std::exp readings at y* -/+ w around y* = log g* (w = 8
//     rel + 4 ulps of y*) certify, under that model, that every y at or
//     below the lower end reads exp(y) < g* and every y at or above the
//     upper one does not. fl(s / c) never decreases as s grows, so the
//     ends carried back to s (quotient_preimage: the largest s with fl(s
//     / c) at or below the lower end, the smallest at or above the upper)
//     answer every question outside them with no division and no exp.
//     Several cost classes: a safeguarded Newton's method on the
//     real-valued mass estimates the root, and at each end one std::exp
//     reading per class bounds every growth an s' on that side can read:
//     for s' at or below the end at most the reading's reading_ceiling
//     (fl(s' / c) <= fl(end / c), and e^y rises), for s' at or above it
//     at least its reading_floor. The mass never increases in any growth,
//     so one exact evaluation at those bounds bounds the mass of every s'
//     on that side: above k at the ceilings, every s' at or below the
//     lower end overflows; at most k at the floors, every s' at or above
//     the upper end fits. No rounding error of the mass enters the
//     certificate, only std::exp's. An end that fails to certify stays
//     open. Either way a question outside the bracket gets the answer its
//     evaluation would give, so every decision, hi, x and both
//     accumulators are unchanged. class_cost_.size() picks the path.
//   - The bisection stops at its fixed point. Once mid == lo or mid == hi,
//     no later halving moves lo or hi (mass(lo) > k and mass(hi) <= k
//     already hold, and lo > 0 by then), so the final hi is the same.
//   - Only pages whose x changed (moved()) can have a decrease; the two
//     fetch costs sum over them in ascending page and block order, the
//     order the full passes over pages and blocks would add them in.
#pragma once

#include <utility>
#include <vector>

#include "core/block_map.hpp"
#include "core/instance.hpp"
#include "util/certified_bracket.hpp"

namespace bac {

class FractionalWeightedPaging {
 public:
  /// Fractional cache of k >= 1 pages over `blocks` (held by value:
  /// BlockMap copies share one immutable structure). Throws
  /// std::invalid_argument for k <= 0.
  FractionalWeightedPaging(BlockMap blocks, int k);
  explicit FractionalWeightedPaging(const Instance& inst)
      : FractionalWeightedPaging(inst.blocks, inst.k) {}

  /// Serve a request; returns the post-step missing-mass vector x.
  const std::vector<double>& step(PageId p);

  [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }

  /// The pages whose x changed in the last step(), ascending. Every other
  /// page kept its x bit for bit.
  [[nodiscard]] const std::vector<PageId>& moved() const noexcept {
    return moved_;
  }

  /// Accumulated fractional *classic* fetching cost: sum over steps of
  /// sum_p c_p * max(0, decrease of x_p).
  [[nodiscard]] double classic_fetch_cost() const noexcept {
    return fetch_cost_;
  }
  /// Accumulated fractional *block-batched* fetching cost:
  /// sum over steps of sum_B c_B * max_{p in B} (decrease of x_p)_+.
  [[nodiscard]] double block_fetch_cost() const noexcept {
    return block_fetch_cost_;
  }

  /// How the bisections decided. Every count is a function of the
  /// request sequence alone.
  struct Counts {
    long long bisections = 0;  ///< steps that bisected for the growth time
    /// Questions their doubling and halving loops asked (the plain
    /// bisection evaluates each one).
    long long halvings = 0;
    /// One block cost: std::exp readings, at the bracket's two ends and
    /// for the questions inside it.
    long long exp_reads = 0;
    /// Exact mass evaluations: the g* search's walks (one block cost),
    /// and the readings at the bracket's ends and inside it (several).
    long long mass_evals = 0;
  };
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }

 private:
  BlockMap blocks_;
  int k_;
  double inv_k_;
  std::vector<double> x_;            // missing mass per page
  std::vector<std::size_t> class_of_;  // per page: index of its block's cost
  std::vector<double> class_cost_;   // the distinct block costs
  std::vector<double> inv_cost_;     // 1 / c per class (Newton's slope)
  std::vector<double> growth_;       // per class: exp(s / c) at the last s
  std::vector<PageId> seen_list_;    // the pages requested so far, ascending
  std::vector<PageId> partial_;      // the seen pages with x < 1, ascending
  std::vector<PageId> next_partial_;  // partial_ being rebuilt by a step
  std::vector<PageId> moved_;
  std::vector<double> moved_from_;   // x before the step, one per moved_
  std::vector<std::pair<BlockId, double>> drops_;  // (block, decrease)
  double fetch_cost_ = 0;
  double block_fetch_cost_ = 0;
  Counts counts_;

  /// Fill growth_ with exp(s / c) per class.
  void grow_classes(double s);
  /// The pages a pass under growth_ walks: the x < 1 list when every page
  /// at x = 1 stays at exactly 1 (the walk is then exact), else every seen
  /// page.
  [[nodiscard]] const std::vector<PageId>& walk() const;
  /// Page q's x grown by its class's factor in growth_.
  [[nodiscard]] double grown(std::size_t q) const;
  /// The fractional cache content under growth_, with p requested.
  [[nodiscard]] double mass(PageId p) const;
  /// One cost class only: the least positive double g such that mass(p)
  /// <= k when growth_[0] = g (leaves growth_ changed).
  double least_fitting_growth(PageId p);
  /// One cost class only: certified ends in s for std::exp(s / c) < g*.
  [[nodiscard]] CertifiedBracket growth_bracket(double g_star);
  /// Several cost classes: certified ends in s for mass(p) > k at growth
  /// time s.
  [[nodiscard]] CertifiedBracket mass_bracket(PageId p);
  /// Grow every walked page but `p` to time s; rebuilds partial_ and
  /// moved_ (with p, whose x went from `p_from` to 0, merged in order).
  void grow_to(double s, PageId p, double p_from);
  void charge_fetches();
};

}  // namespace bac
