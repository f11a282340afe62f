#include "algs/lower_bounds.hpp"

#include <stdexcept>

namespace bac {

Cost lp_lower_bound(const Instance& inst, CostModel model,
                    const SimplexOptions& options) {
  const NaiveLpResult res = solve_naive_lp(inst, model, options);
  if (res.status != LpStatus::Optimal)
    throw std::runtime_error("lp_lower_bound: simplex did not converge");
  return res.objective;
}

EvictionLowerBound eviction_lower_bound(const Instance& inst) {
  EvictionLowerBound out;
  // Dense-simplex budget heuristic: (rows) x (cols) cells of the tableau.
  constexpr long long kMaxLpCells = 4'000'000;
  const long long T = inst.horizon();
  const long long n = inst.n_pages();
  const long long rows = T * (n + 2);
  const long long cols = T * (n + inst.blocks.n_blocks());
  if (rows * cols <= kMaxLpCells) {
    out.value = lp_lower_bound(inst, CostModel::Eviction);
    out.source = EvictionLowerBound::Source::Lp;
  }
  return out;
}

}  // namespace bac
