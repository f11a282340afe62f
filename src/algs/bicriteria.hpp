// Section 4.1: deterministic online bicriteria roundings of fractional
// solutions (Theorem 4.1 and the eviction-cost variant), plus the
// fractional block-batched cost functionals they are compared against.
//
// Input is a fractional missing-mass matrix x[t][p] (t = 0..T, x[0] all 1)
// that satisfies the naive LP (A.1) constraints — produced either by the
// simplex solver (exact fractional OPT on small instances) or by the online
// FractionalWeightedPaging substrate (Theorem 4.4's derandomization source).
//
// Fetching rounding: a page is cache-eligible iff x <= 1/2; on a miss of
// p_t, fetch every eligible page of B(p_t) (one batched fetch); evict pages
// whose x rose above 1/2 (free). Guarantees: space <= 2k, batched fetching
// cost <= 2 * fractional batched fetching cost.
//
// Eviction rounding: when a cached page's x crosses above 1/2, flush its
// whole block (one batched eviction); fetch p_t on a miss (free).
// Guarantees: space <= 2k, batched eviction cost <= 2 * fractional batched
// eviction cost.
#pragma once

#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace bac {

struct BicriteriaOutcome {
  Schedule schedule;
  int max_cache_used = 0;  ///< peak page count (theorem bound: <= 2k)
  Cost fetch_cost = 0;     ///< batched
  Cost eviction_cost = 0;  ///< batched
};

BicriteriaOutcome round_fetch_threshold(
    const Instance& inst, const std::vector<std::vector<double>>& x);

BicriteriaOutcome round_evict_threshold(
    const Instance& inst, const std::vector<std::vector<double>>& x);

/// sum_t sum_B c_B * max_{p in B} (x^{t-1}_p - x^t_p)_+  (batched fetches).
Cost fractional_block_fetch_cost(const Instance& inst,
                                 const std::vector<std::vector<double>>& x);

/// sum_t sum_B c_B * max_{p in B} (x^t_p - x^{t-1}_p)_+  (batched evictions).
Cost fractional_block_evict_cost(const Instance& inst,
                                 const std::vector<std::vector<double>>& x);

/// Check x against the LP (A.1) constraints (x[t][p_t] == 0 and
/// sum_p x >= n-k, within `tol`); returns the first violated time or 0.
/// Stays for the tests, which check the simplex's and fractional paging's
/// x with it before rounding them.
Time check_fractional_feasible(const Instance& inst,
                               const std::vector<std::vector<double>>& x,
                               double tol = 1e-6);

}  // namespace bac
