#include "lp/naive_lp.hpp"

#include <stdexcept>

namespace bac {

namespace {

/// Variable index bookkeeping: x_p^t exists for t = 1..T except when fixed
/// to zero (the requested page), x_p^0 is the constant 1.
struct VarIndex {
  explicit VarIndex(const Instance& inst)
      : n(inst.n_pages()),
        T(inst.horizon()),
        x_idx(static_cast<std::size_t>(T + 1) * static_cast<std::size_t>(n),
              kConstZero),
        phi_idx(static_cast<std::size_t>(T + 1) *
                    static_cast<std::size_t>(inst.blocks.n_blocks()),
                kConstZero) {}

  static constexpr int kConstZero = -1;
  static constexpr int kConstOne = -2;

  int n;
  Time T;
  std::vector<int> x_idx;
  std::vector<int> phi_idx;

  [[nodiscard]] std::size_t xpos(Time t, PageId p) const {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(n) +
           static_cast<std::size_t>(p);
  }
  [[nodiscard]] std::size_t phipos(Time t, BlockId b, int n_blocks) const {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(n_blocks) +
           static_cast<std::size_t>(b);
  }
};

}  // namespace

LpProblem build_naive_lp(const Instance& inst, CostModel model) {
  inst.validate();
  LpProblem lp;
  const int n = inst.n_pages();
  const int n_blocks = inst.blocks.n_blocks();
  const Time T = inst.horizon();
  VarIndex vars(inst);

  // x_p^0 = 1 for all p.
  for (PageId p = 0; p < n; ++p) vars.x_idx[vars.xpos(0, p)] = VarIndex::kConstOne;

  // Create x variables (objective 0), fixing the requested page to 0.
  for (Time t = 1; t <= T; ++t) {
    const PageId requested = inst.request_at(t);
    for (PageId p = 0; p < n; ++p) {
      if (p == requested) continue;  // fixed to 0
      vars.x_idx[vars.xpos(t, p)] = lp.add_var(0.0);
    }
  }
  // Create phi variables with cost coefficients.
  for (Time t = 1; t <= T; ++t)
    for (BlockId b = 0; b < n_blocks; ++b)
      vars.phi_idx[vars.phipos(t, b, n_blocks)] =
          lp.add_var(inst.blocks.cost(b));

  const double sigma = (model == CostModel::Eviction) ? 1.0 : -1.0;

  for (Time t = 1; t <= T; ++t) {
    // phi_B^t >= sigma * (x_p^t - x_p^{t-1})
    //   <=>  phi_B^t - sigma*x_p^t + sigma*x_p^{t-1} >= 0.
    for (BlockId b = 0; b < n_blocks; ++b) {
      const int phi = vars.phi_idx[vars.phipos(t, b, n_blocks)];
      for (PageId p : inst.blocks.pages_in(b)) {
        std::vector<std::pair<int, double>> terms;
        double rhs = 0;
        terms.emplace_back(phi, 1.0);
        const int xt = vars.x_idx[vars.xpos(t, p)];
        const int xprev = vars.x_idx[vars.xpos(t - 1, p)];
        if (xt >= 0) terms.emplace_back(xt, -sigma);
        // xt fixed to 0 contributes nothing.
        if (xprev >= 0) terms.emplace_back(xprev, sigma);
        else if (xprev == VarIndex::kConstOne) rhs -= sigma;  // move to rhs
        lp.add_constraint(std::move(terms), Relation::GreaterEq, rhs);
      }
    }

    // sum_p x_p^t >= n - k.
    {
      std::vector<std::pair<int, double>> terms;
      double rhs = static_cast<double>(n - inst.k);
      for (PageId p = 0; p < n; ++p) {
        const int xt = vars.x_idx[vars.xpos(t, p)];
        if (xt >= 0) terms.emplace_back(xt, 1.0);
        // requested page contributes 0
      }
      if (rhs > 0) lp.add_constraint(std::move(terms), Relation::GreaterEq, rhs);
    }

    // x <= 1.
    for (PageId p = 0; p < n; ++p) {
      const int xt = vars.x_idx[vars.xpos(t, p)];
      if (xt >= 0) lp.add_upper_bound(xt, 1.0);
    }
  }
  return lp;
}

NaiveLpResult solve_naive_lp(const Instance& inst, CostModel model,
                             const SimplexOptions& options) {
  const LpProblem lp = build_naive_lp(inst, model);
  const LpSolution sol = solve_simplex(lp, options);

  NaiveLpResult out;
  out.status = sol.status;
  out.objective = sol.objective;
  out.pivots = sol.pivots;
  if (sol.status != LpStatus::Optimal) return out;

  const int n = inst.n_pages();
  const int n_blocks = inst.blocks.n_blocks();
  const Time T = inst.horizon();
  out.x.assign(static_cast<std::size_t>(T + 1),
               std::vector<double>(static_cast<std::size_t>(n), 0.0));
  out.phi.assign(static_cast<std::size_t>(T + 1),
                 std::vector<double>(static_cast<std::size_t>(n_blocks), 0.0));
  for (PageId p = 0; p < n; ++p) out.x[0][static_cast<std::size_t>(p)] = 1.0;

  // Re-derive the variable layout to unpack (same construction order).
  int cursor = 0;
  for (Time t = 1; t <= T; ++t) {
    const PageId requested = inst.request_at(t);
    for (PageId p = 0; p < n; ++p) {
      if (p == requested) continue;
      out.x[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)] =
          sol.x[static_cast<std::size_t>(cursor++)];
    }
  }
  for (Time t = 1; t <= T; ++t)
    for (BlockId b = 0; b < n_blocks; ++b)
      out.phi[static_cast<std::size_t>(t)][static_cast<std::size_t>(b)] =
          sol.x[static_cast<std::size_t>(cursor++)];
  return out;
}

}  // namespace bac
