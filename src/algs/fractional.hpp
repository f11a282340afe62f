// Algorithm 2: the O(log k)-competitive monotone-incremental fractional
// algorithm for block-aware caching with eviction cost (Theorem 3.6).
//
// While some primal constraint (S', tau) with S' >= S is violated (found by
// a separation oracle), the dual variable y_{S'}^tau rises continuously and
// every *alive* flush (B, t) grows according to the paper's (3.4):
//
//   d phi_B^t / dy = ln(k*beta + 1)/c_B * f_tau((B,t)|S') * (phi_B^t + 1/(k*beta))
//
// until the first alive flush with marginal >= 1 reaches phi = 1 (which is
// exactly when its dual constraint becomes tight — see Lemma 3.8); that
// flush joins the integral set S. The dynamics integrate in closed form,
//   phi(y + d) = (phi(y) + eps) * exp(eta_B * f * d) - eps,
// with eps = 1/(k*beta) and eta_B = ln(k*beta+1)/c_B, so each iteration
// computes the minimal tightening d over the alive candidates directly; no
// numerical ODE stepping is involved.
//
// The solution only ever increases (monotone-incremental); all increments
// are reported per step so the online rounding (Algorithm 3) can consume
// them without seeing the future.
//
// The saturation bisection. When the constraint saturates before any
// flush tightens, the dual step is found by at most 64 halvings of
// [0, d_tight], each asking "does lhs_at(mid) read below rhs?", and the
// bits of the step, of every increment and of the dual are those
// halvings'. Most of them need no evaluation. Below d_tight no candidate
// reaches 1, so the real LHS L(d) = sum_r W_r exp(r d) - eps * sum coeff
// is increasing and convex, and lhs_at stays within rel * L + abs of it,
// rel = (n + x_max + 2 U + 4) u and abs = (x_max + 2 U + 3) u eps sum
// coeff (u = 2^-53, n terms, x_max = ln(k beta + 1) + 1 bounds r d, U =
// kExpUlps, util/certified_bracket.hpp's one libm assumption: std::exp
// is within U ulps of exp; a test samples it against expl). Newton's
// method on log(L + eps sum coeff) finds the root; one lhs_at reading
// each a few error widths either side of it certifies a bracket
// (util/certified_bracket.hpp's certify_bracket): every mid at or below
// its lower end reads below rhs and every mid at or above its upper end
// does not. The halvings consult the bracket first and evaluate lhs_at
// only between its ends, so they take the branches the plain bisection
// takes. verify::ReferenceFractionalBlockAware is that plain bisection
// (and the gather below by alive_times, f_marginal and FlushVars::get);
// tests and the policy_equivalence fuzz family diff the two bit for bit.
//
// Gathering the alive flushes. Block B's alive times are r(p) + 1 over its
// pages (0 for a page never requested), and the flush at one of them has
// g-marginal count_below(B, r + 1) - count_below(B, m_B) w.r.t. S', where
// it lies after m_B. In B's sorted last requests, the run of equal r that
// ends at index j holds every r' <= r, so its count_below(B, r + 1) is
// j + 1; the never-requested run (r = -1, below every request time) has
// alive time 0 and count_below(B, 0) = j + 1 as well. So one count_below
// for m_B and one pass over the sorted list give every coefficient, in
// alive-time order, and each phi comes from a search of B's entries that
// resumes where the previous alive time's ended.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/policy.hpp"
#include "submodular/flush_coverage.hpp"
#include "submodular/flush_vars.hpp"
#include "submodular/separation.hpp"
#include "util/certified_bracket.hpp"
#include "util/flat_hash.hpp"

namespace bac {

struct FractionalIncrement {
  BlockId b = 0;
  Time t = 0;         ///< the flush variable's time index (may be < tau)
  double delta = 0;   ///< amount added
  double new_value = 0;
};

class FractionalBlockAware {
 public:
  /// `oracle` defaults to ThresholdSeparation. k and beta come from the
  /// instance structure.
  FractionalBlockAware(const BlockMap& blocks, int k,
                       std::unique_ptr<SeparationOracle> oracle = nullptr);

  /// Serve the request to p at time t; returns this step's increments.
  const std::vector<FractionalIncrement>& step(Time t, PageId p);

  /// Fractional eviction cost sum c_B phi_B^t over t >= 1.
  [[nodiscard]] double fractional_cost() const {
    return vars_.total_cost(*blocks_);
  }
  /// Feasible dual objective (lower bound on fractional OPT).
  [[nodiscard]] double dual_objective() const noexcept { return dual_obj_; }
  [[nodiscard]] const FlushVars& vars() const noexcept { return vars_; }
  /// S, the flushes adopted so far. Stays for the tests, which check with
  /// it that no constraint is left violated after a step.
  [[nodiscard]] const FlushSet& integral_set() const { return *S_; }
  [[nodiscard]] const FlushCoverage& coverage() const { return *cov_; }
  /// Flushes integrally chosen so far (excluding the free time-0 ones).
  [[nodiscard]] long long integral_flushes() const noexcept {
    return integral_flushes_;
  }

  /// How the while-loop's decisions were made. Every count is a function
  /// of the request sequence alone.
  struct Counts {
    long long separation_calls = 0;  ///< find_violated calls
    long long bisections = 0;        ///< saturation bisections
    long long lhs_evals = 0;         ///< lhs_at evaluations they made
  };
  [[nodiscard]] const Counts& counts() const noexcept { return counts_; }
  /// The oracle's own counts (zero for oracles that keep none).
  [[nodiscard]] SeparationCounts separation_counts() const {
    return oracle_->counts();
  }

 private:
  const BlockMap* blocks_;
  int k_;
  double eps_;      // 1/(k*beta)
  double log_term_; // ln(k*beta + 1)
  std::unique_ptr<SeparationOracle> oracle_;
  std::optional<FlushCoverage> cov_;
  std::optional<FlushSet> S_;
  FlushVars vars_;
  double dual_obj_ = 0;
  long long integral_flushes_ = 0;
  std::vector<FractionalIncrement> increments_;
  Counts counts_;

  // Per-iteration buffers of step(), kept for their capacity.
  struct Candidate {
    BlockId b;
    Time t;
    int coeff;         // capped marginal w.r.t. S'
    double phi;
    double rate;       // eta_B * coeff: phi + eps grows as exp(rate * d)
    std::size_t slot;  // index of rate in rates_
  };
  std::vector<Candidate> alive_;
  std::vector<double> rates_;   // distinct rates of alive_
  FlatMap<std::uint64_t, std::size_t> rate_slots_;  // rate bits -> slot
  std::vector<double> growth_;  // exp(rate * d) per rates_ entry
  std::vector<double> weights_;  // per rates_ entry: sum coeff * (phi + eps)

  /// growth_ at dual increase d.
  void grow_to(double d);
  /// The violated constraint's LHS after dual increase d: every alive
  /// candidate grown in closed form and capped at 1.
  [[nodiscard]] double lhs_at(double d);
  /// Certified ends for the saturation bisection over [0, d_tight].
  [[nodiscard]] CertifiedBracket saturation_bracket(double d_tight,
                                                    double rhs);
};

}  // namespace bac
