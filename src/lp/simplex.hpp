// Dense two-phase primal simplex.
//
// A small, self-contained LP solver sufficient for the instances this
// library solves exactly: the naive relaxation (A.1) on integrality-gap
// instances, LP lower bounds on OPT for small traces, and the fractional
// inputs of the Section 4.1 bicriteria rounding experiments. Minimization
// form; constraints may be <=, =, >=; variables are non-negative (impose
// upper bounds by adding rows — the builders do this).
//
// Pivoting: Dantzig's rule with a Bland fallback after a long degenerate
// stall, which guarantees termination. Dense tableau, O(m*n) per pivot —
// fine for the few-thousand-row models used here.
#pragma once

#include <utility>
#include <vector>

namespace bac {

enum class Relation { LessEq, Equal, GreaterEq };

enum class LpStatus { Optimal, Infeasible, Unbounded, IterationLimit };

class LpProblem {
 public:
  /// Add a variable with objective coefficient `obj`; returns its index.
  int add_var(double obj);

  /// Add constraint sum_j coeff_j * x_{idx_j} (rel) rhs.
  void add_constraint(std::vector<std::pair<int, double>> terms, Relation rel,
                      double rhs);

  /// Convenience: x_i <= ub as a row.
  void add_upper_bound(int var, double ub) {
    add_constraint({{var, 1.0}}, Relation::LessEq, ub);
  }

  [[nodiscard]] int n_vars() const noexcept {
    return static_cast<int>(obj_.size());
  }
  [[nodiscard]] int n_constraints() const noexcept {
    return static_cast<int>(rows_.size());
  }

  struct Row {
    std::vector<std::pair<int, double>> terms;
    Relation rel;
    double rhs;
  };

  [[nodiscard]] const std::vector<double>& objective() const noexcept {
    return obj_;
  }
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

 private:
  std::vector<double> obj_;
  std::vector<Row> rows_;
};

struct LpSolution {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0;
  std::vector<double> x;
  long long pivots = 0;
};

struct SimplexOptions {
  long long max_pivots = 2'000'000;
  double tolerance = 1e-9;
};

LpSolution solve_simplex(const LpProblem& problem,
                         const SimplexOptions& options = {});

}  // namespace bac
