// Tests for the dense two-phase simplex on LPs with known solutions.
#include <gtest/gtest.h>

#include <array>
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace bac {
namespace {

TEST(Simplex, SolvesTextbookLp) {
  // min -3x - 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum at (2, 6), objective -36.
  LpProblem lp;
  const int x = lp.add_var(-3.0);
  const int y = lp.add_var(-5.0);
  lp.add_constraint({{x, 1.0}}, Relation::LessEq, 4.0);
  lp.add_constraint({{y, 2.0}}, Relation::LessEq, 12.0);
  lp.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::LessEq, 18.0);
  const LpSolution sol = solve_simplex(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, HandlesGreaterEqAndEquality) {
  // min 2a + 3b  s.t.  a + b >= 4, a - b = 1, a, b >= 0.
  // b = a - 1, a + b >= 4 -> a >= 2.5; objective 2a + 3(a-1) = 5a - 3,
  // minimized at a = 2.5: 9.5.
  LpProblem lp;
  const int a = lp.add_var(2.0);
  const int b = lp.add_var(3.0);
  lp.add_constraint({{a, 1.0}, {b, 1.0}}, Relation::GreaterEq, 4.0);
  lp.add_constraint({{a, 1.0}, {b, -1.0}}, Relation::Equal, 1.0);
  const LpSolution sol = solve_simplex(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 9.5, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<std::size_t>(a)], 2.5, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  LpProblem lp;
  const int x = lp.add_var(1.0);
  lp.add_constraint({{x, 1.0}}, Relation::LessEq, 1.0);
  lp.add_constraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
  EXPECT_EQ(solve_simplex(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  LpProblem lp;
  const int x = lp.add_var(-1.0);  // min -x with x unbounded above
  lp.add_constraint({{x, 1.0}}, Relation::GreaterEq, 0.0);
  EXPECT_EQ(solve_simplex(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeRhsNormalization) {
  // min x  s.t.  -x <= -3  (i.e. x >= 3).
  LpProblem lp;
  const int x = lp.add_var(1.0);
  lp.add_constraint({{x, -1.0}}, Relation::LessEq, -3.0);
  const LpSolution sol = solve_simplex(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-7);
}

TEST(Simplex, DegenerateLpTerminates) {
  // Highly degenerate: many redundant constraints through the origin.
  LpProblem lp;
  const int x = lp.add_var(-1.0);
  const int y = lp.add_var(-1.0);
  for (int i = 1; i <= 6; ++i)
    lp.add_constraint({{x, static_cast<double>(i)}, {y, 1.0}},
                      Relation::LessEq, 0.0);
  lp.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 5.0);
  const LpSolution sol = solve_simplex(lp);
  ASSERT_EQ(sol.status, LpStatus::Optimal);
  // x must be <= 0 from (i=6), actually x <= 0 and y <= -6x... feasible
  // optimum: maximize x + y subject to y <= -6x, x + y <= 5 -> x <= -? with
  // x >= 0 bound: x = 0, y = 0. Objective 0... but y <= 0 too from i rows.
  EXPECT_NEAR(sol.objective, 0.0, 1e-7);
}

TEST(Simplex, RandomLpsAgainstBruteForceVertices) {
  // Random small LPs: min c'x s.t. Ax <= b, 0 <= x. Compare against brute
  // force over all basic feasible points from 2-subsets of tight rows
  // (including axis constraints) in 2D.
  Xoshiro256pp rng(5);
  for (int trial = 0; trial < 25; ++trial) {
    const double c0 = -1.0 - rng.uniform() * 2.0;
    const double c1 = -1.0 - rng.uniform() * 2.0;
    std::vector<std::array<double, 3>> rows;  // a0 x + a1 y <= b
    for (int i = 0; i < 4; ++i)
      rows.push_back({0.2 + rng.uniform(), 0.2 + rng.uniform(),
                      1.0 + rng.uniform() * 4.0});

    LpProblem lp;
    const int x = lp.add_var(c0);
    const int y = lp.add_var(c1);
    for (const auto& r : rows)
      lp.add_constraint({{x, r[0]}, {y, r[1]}}, Relation::LessEq, r[2]);
    const LpSolution sol = solve_simplex(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);

    // Brute force candidate vertices: intersections of row pairs + axes.
    std::vector<std::pair<double, double>> pts{{0, 0}};
    auto add_if_feasible = [&](double px, double py) {
      if (px < -1e-9 || py < -1e-9) return;
      for (const auto& r : rows)
        if (r[0] * px + r[1] * py > r[2] + 1e-7) return;
      pts.emplace_back(px, py);
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
      add_if_feasible(rows[i][2] / rows[i][0], 0);
      add_if_feasible(0, rows[i][2] / rows[i][1]);
      for (std::size_t j = i + 1; j < rows.size(); ++j) {
        const double det = rows[i][0] * rows[j][1] - rows[j][0] * rows[i][1];
        if (std::abs(det) < 1e-12) continue;
        const double px = (rows[i][2] * rows[j][1] - rows[j][2] * rows[i][1]) / det;
        const double py = (rows[i][0] * rows[j][2] - rows[j][0] * rows[i][2]) / det;
        add_if_feasible(px, py);
      }
    }
    double best = 0;
    for (const auto& [px, py] : pts) best = std::min(best, c0 * px + c1 * py);
    EXPECT_NEAR(sol.objective, best, 1e-6) << "trial " << trial;
  }
}

}  // namespace
}  // namespace bac
