// Certified lower bounds on OPT for competitive-ratio denominators.
//
// Two sources, by instance size:
//  - the naive LP (A.1) value via simplex for small instances,
//  - the dual objectives maintained by the primal-dual algorithms
//    (DetOnlineBlockAware / FractionalBlockAware) for anything larger.
// Toy instances can be solved exactly instead (algs/opt.hpp).
// Every one of them lower-bounds the true optimum in its cost model, so
// ratios computed against them only over-estimate the competitive ratio —
// the safe direction for reproducing the paper's upper-bound claims.
#pragma once

#include "core/instance.hpp"
#include "lp/naive_lp.hpp"

namespace bac {

/// Naive-LP lower bound on OPT in the given model. Throws if the simplex
/// does not reach optimality within its pivot budget.
Cost lp_lower_bound(const Instance& inst, CostModel model,
                    const SimplexOptions& options = {});

/// Lower bound on OPT_evict for an instance: the LP value when the model's
/// dense tableau has at most 4M cells (T(n+2) rows by T(n+#blocks)
/// columns), otherwise 0 with Source::None (caller falls back to a dual
/// objective).
struct EvictionLowerBound {
  Cost value = 0;
  enum class Source { Lp, None } source = Source::None;
};
EvictionLowerBound eviction_lower_bound(const Instance& inst);

}  // namespace bac
