#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bac {

int LpProblem::add_var(double obj) {
  obj_.push_back(obj);
  return static_cast<int>(obj_.size()) - 1;
}

void LpProblem::add_constraint(std::vector<std::pair<int, double>> terms,
                               Relation rel, double rhs) {
  for (const auto& [idx, coeff] : terms) {
    (void)coeff;
    if (idx < 0 || idx >= n_vars())
      throw std::invalid_argument("LpProblem: bad variable index");
  }
  rows_.push_back(Row{std::move(terms), rel, rhs});
}

namespace {

/// Dense tableau with explicit basis; standard textbook two-phase method.
class Tableau {
 public:
  Tableau(const LpProblem& problem, double tol) : tol_(tol) {
    const int m = problem.n_constraints();
    n_struct_ = problem.n_vars();

    // Count auxiliary columns.
    int n_slack = 0, n_art = 0;
    for (const auto& row : problem.rows()) {
      const bool flip = row.rhs < 0;
      Relation rel = row.rel;
      if (flip) {
        if (rel == Relation::LessEq) rel = Relation::GreaterEq;
        else if (rel == Relation::GreaterEq) rel = Relation::LessEq;
      }
      if (rel != Relation::Equal) ++n_slack;
      if (rel != Relation::LessEq) ++n_art;
    }
    n_total_ = n_struct_ + n_slack + n_art;
    art_begin_ = n_struct_ + n_slack;

    a_.assign(static_cast<std::size_t>(m) * (n_total_ + 1), 0.0);
    basis_.assign(static_cast<std::size_t>(m), -1);

    int slack_cursor = n_struct_;
    int art_cursor = art_begin_;
    for (int i = 0; i < m; ++i) {
      const auto& row = problem.rows()[static_cast<std::size_t>(i)];
      const bool flip = row.rhs < 0;
      const double sign = flip ? -1.0 : 1.0;
      Relation rel = row.rel;
      if (flip) {
        if (rel == Relation::LessEq) rel = Relation::GreaterEq;
        else if (rel == Relation::GreaterEq) rel = Relation::LessEq;
      }
      for (const auto& [idx, coeff] : row.terms) at(i, idx) += sign * coeff;
      rhs(i) = sign * row.rhs;

      if (rel == Relation::LessEq) {
        at(i, slack_cursor) = 1.0;
        basis_[static_cast<std::size_t>(i)] = slack_cursor++;
      } else if (rel == Relation::GreaterEq) {
        at(i, slack_cursor++) = -1.0;
        at(i, art_cursor) = 1.0;
        basis_[static_cast<std::size_t>(i)] = art_cursor++;
      } else {
        at(i, art_cursor) = 1.0;
        basis_[static_cast<std::size_t>(i)] = art_cursor++;
      }
    }
    m_ = m;
  }

  [[nodiscard]] int m() const noexcept { return m_; }
  [[nodiscard]] int n_total() const noexcept { return n_total_; }
  [[nodiscard]] int art_begin() const noexcept { return art_begin_; }
  [[nodiscard]] int n_struct() const noexcept { return n_struct_; }

  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * (n_total_ + 1) +
              static_cast<std::size_t>(j)];
  }
  [[nodiscard]] double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * (n_total_ + 1) +
              static_cast<std::size_t>(j)];
  }
  double& rhs(int i) { return at(i, n_total_); }
  [[nodiscard]] double rhs(int i) const { return at(i, n_total_); }
  [[nodiscard]] int basis(int i) const {
    return basis_[static_cast<std::size_t>(i)];
  }

  /// Price out: reduced costs for objective `c` (size n_total, zeros ok).
  void compute_reduced(const std::vector<double>& c, std::vector<double>& red,
                       double& obj_val) const {
    // y = c_B B^{-1} is implicit: tableau rows are already B^{-1} A.
    red = c;
    obj_val = 0;
    for (int i = 0; i < m_; ++i) {
      const int bi = basis(i);
      const double cb = c[static_cast<std::size_t>(bi)];
      if (cb == 0.0) continue;
      obj_val += cb * rhs(i);
      for (int j = 0; j <= n_total_; ++j) {
        if (j == n_total_) continue;
        red[static_cast<std::size_t>(j)] -= cb * at(i, j);
      }
    }
  }

  void pivot(int row, int col) {
    const double piv = at(row, col);
    const double inv = 1.0 / piv;
    for (int j = 0; j <= n_total_; ++j) at(row, j) *= inv;
    at(row, col) = 1.0;
    for (int i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double factor = at(i, col);
      if (factor == 0.0) continue;
      for (int j = 0; j <= n_total_; ++j) at(i, j) -= factor * at(row, j);
      at(i, col) = 0.0;
    }
    basis_[static_cast<std::size_t>(row)] = col;
  }

  /// Run simplex for objective c (minimize). `allowed(j)` filters entering
  /// columns. Returns status.
  LpStatus optimize(const std::vector<double>& c, long long& pivot_budget,
                    long long& pivots_used, bool forbid_artificials) {
    std::vector<double> red;
    long long stall = 0;
    double last_obj = std::numeric_limits<double>::infinity();

    while (pivot_budget > 0) {
      double obj_val = 0;
      compute_reduced(c, red, obj_val);

      // Entering column: Dantzig, Bland under stall.
      const bool use_bland = stall > 2 * (m_ + n_total_);
      int enter = -1;
      double best = -tol_;
      for (int j = 0; j < n_total_; ++j) {
        if (forbid_artificials && j >= art_begin_) continue;
        const double rc = red[static_cast<std::size_t>(j)];
        if (rc < -tol_) {
          if (use_bland) {
            enter = j;
            break;
          }
          if (rc < best) {
            best = rc;
            enter = j;
          }
        }
      }
      if (enter < 0) return LpStatus::Optimal;

      // Ratio test (Bland ties by smallest basis index).
      int leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (int i = 0; i < m_; ++i) {
        const double aij = at(i, enter);
        if (aij > tol_) {
          const double ratio = rhs(i) / aij;
          if (ratio < best_ratio - tol_ ||
              (ratio < best_ratio + tol_ &&
               (leave == -1 || basis(i) < basis(leave)))) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave < 0) return LpStatus::Unbounded;

      pivot(leave, enter);
      --pivot_budget;
      ++pivots_used;
      if (obj_val >= last_obj - tol_) ++stall;
      else stall = 0;
      last_obj = obj_val;
    }
    return LpStatus::IterationLimit;
  }

  /// Try to pivot artificial variables out of the basis (after phase 1).
  void expel_artificials() {
    for (int i = 0; i < m_; ++i) {
      if (basis(i) < art_begin_) continue;
      int col = -1;
      for (int j = 0; j < art_begin_; ++j) {
        if (std::abs(at(i, j)) > tol_) {
          col = j;
          break;
        }
      }
      if (col >= 0) pivot(i, col);
      // Otherwise the row is redundant (all-zero over real columns); its
      // artificial stays basic at value 0, which is harmless since phase 2
      // forbids artificials from entering and the rhs is ~0.
    }
  }

 private:
  double tol_;
  int m_ = 0, n_struct_ = 0, n_total_ = 0, art_begin_ = 0;
  std::vector<double> a_;
  std::vector<int> basis_;
};

}  // namespace

LpSolution solve_simplex(const LpProblem& problem,
                         const SimplexOptions& options) {
  LpSolution solution;
  Tableau tab(problem, options.tolerance);
  long long budget = options.max_pivots;

  // Phase 1: minimize the sum of artificial variables.
  const bool has_artificials = tab.art_begin() < tab.n_total();
  if (has_artificials) {
    std::vector<double> c1(static_cast<std::size_t>(tab.n_total()), 0.0);
    for (int j = tab.art_begin(); j < tab.n_total(); ++j)
      c1[static_cast<std::size_t>(j)] = 1.0;
    const LpStatus st = tab.optimize(c1, budget, solution.pivots, false);
    if (st == LpStatus::IterationLimit) {
      solution.status = st;
      return solution;
    }
    double art_sum = 0;
    for (int i = 0; i < tab.m(); ++i)
      if (tab.basis(i) >= tab.art_begin()) art_sum += tab.rhs(i);
    if (art_sum > 1e-6) {
      solution.status = LpStatus::Infeasible;
      return solution;
    }
    tab.expel_artificials();
  }

  // Phase 2: the real objective (zero on aux columns).
  std::vector<double> c2(static_cast<std::size_t>(tab.n_total()), 0.0);
  for (int j = 0; j < problem.n_vars(); ++j)
    c2[static_cast<std::size_t>(j)] =
        problem.objective()[static_cast<std::size_t>(j)];
  const LpStatus st = tab.optimize(c2, budget, solution.pivots, true);
  solution.status = st;
  if (st != LpStatus::Optimal) return solution;

  solution.x.assign(static_cast<std::size_t>(problem.n_vars()), 0.0);
  double obj = 0;
  for (int i = 0; i < tab.m(); ++i) {
    const int b = tab.basis(i);
    if (b < problem.n_vars())
      solution.x[static_cast<std::size_t>(b)] = tab.rhs(i);
  }
  for (int j = 0; j < problem.n_vars(); ++j)
    obj += problem.objective()[static_cast<std::size_t>(j)] *
           solution.x[static_cast<std::size_t>(j)];
  solution.objective = obj;
  return solution;
}

}  // namespace bac
