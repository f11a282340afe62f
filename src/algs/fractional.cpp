#include "algs/fractional.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

namespace bac {

FractionalBlockAware::FractionalBlockAware(
    const BlockMap& blocks, int k, std::unique_ptr<SeparationOracle> oracle)
    : blocks_(&blocks),
      k_(k),
      eps_(1.0 / (static_cast<double>(k) * blocks.beta())),
      log_term_(std::log(static_cast<double>(k) * blocks.beta() + 1.0)),
      oracle_(oracle ? std::move(oracle)
                     : std::make_unique<ThresholdSeparation>()),
      vars_(blocks.n_blocks()) {
  cov_.emplace(blocks, k);
  S_.emplace(*cov_);  // S = {(B, 0)}: free initial clear
  for (BlockId b = 0; b < blocks.n_blocks(); ++b) vars_.raise_to(b, 0, 1.0);
}

const std::vector<FractionalIncrement>& FractionalBlockAware::step(Time t,
                                                                   PageId p) {
  increments_.clear();
  FlushSet* sets[] = {&*S_};
  cov_->advance(p, t, sets);

  // Paranoia bound: adoptions raise g(S) by >= 1 (capped at n) and
  // saturation iterations strictly satisfy the oracle's constraint, so the
  // loop terminates; the generous cap guards against numerical stalls.
  const int max_iters = 20 * cov_->n() + 200;
  for (int iter = 0;; ++iter) {
    if (iter > max_iters)
      throw std::logic_error("FractionalBlockAware: while-loop not converging");

    const auto violation = oracle_->find_violated(*S_, vars_);
    ++counts_.separation_calls;
    if (!violation) break;
    const FlushSet& sprime = violation->sprime;

    // Gather alive flushes and their capped marginals w.r.t. S', one walk
    // per block (see the header).
    alive_.clear();
    rates_.clear();
    rate_slots_.reset();
    const int room = cov_->cap() - sprime.g();
    for (BlockId b = 0; b < blocks_->n_blocks(); ++b) {
      const double eta = log_term_ / blocks_->cost(b);
      const Time m = sprime.max_flush(b);
      const int base = m == kNeverRequested ? 0 : cov_->count_below(b, m);
      const std::span<const Time> last = cov_->sorted_last(b);
      const auto& entries = vars_.entries(b);
      auto e = entries.begin();
      for (std::size_t j = 0; j < last.size(); ++j) {
        if (j + 1 < last.size() && last[j + 1] == last[j]) continue;
        const Time at = last[j] == kNeverRequested ? 0 : last[j] + 1;
        if (at > t) continue;  // flush strictly in the future: untouchable
        // At or before m_B (r < m_B, so j < base) the g-marginal is <= 0.
        const int coeff = std::min(static_cast<int>(j) + 1 - base, room);
        if (coeff <= 0) continue;
        e = std::lower_bound(
            e, entries.end(), at,
            [](const FlushVars::Entry& x, Time u) { return x.t < u; });
        const double phi = e != entries.end() && e->t == at ? e->phi : 0.0;
        const double rate = eta * coeff;
        const auto [slot, fresh] = rate_slots_.try_emplace(
            std::bit_cast<std::uint64_t>(rate), rates_.size());
        if (fresh) rates_.push_back(rate);
        alive_.push_back({b, at, coeff, phi, rate, *slot});
      }
    }
    growth_.resize(rates_.size());

    // d_tight: minimal dual increase making some alive flush with
    // coeff >= 1 reach phi = 1 (its dual constraint tightens then).
    double d_tight = std::numeric_limits<double>::infinity();
    std::size_t chosen = alive_.size();
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      const Candidate& c = alive_[i];
      if (c.phi >= 1.0 - 1e-12) {
        // Already fully evicted fractionally but not yet in S: adopt it
        // immediately (d = 0).
        d_tight = 0.0;
        chosen = i;
        break;
      }
      const double d = std::log((1.0 + eps_) / (c.phi + eps_)) / c.rate;
      if (d < d_tight) {
        d_tight = d;
        chosen = i;
      }
    }
    if (chosen == alive_.size())
      throw std::logic_error(
          "FractionalBlockAware: violated constraint but no alive candidate");

    // d_sat: the dual increase at which the violated constraint becomes
    // exactly satisfied — the paper's continuous while-condition stops the
    // growth there. LHS(d) is monotone; bisect. (Without this cutoff every
    // candidate would grow all the way to phi = 1, inflating the primal by
    // a Theta(k) factor — see Lemma 3.11's inequality (3.6), which is only
    // valid while the constraint is violated.)
    const double rhs = violation->rhs;
    double dstar = d_tight;
    bool adopt = true;
    if (d_tight > 0 && lhs_at(d_tight) >= rhs) {
      adopt = false;  // saturation happens first; no variable reaches 1
      ++counts_.bisections;
      // Halvings outside the bracket are decided without lhs_at, and
      // decided as lhs_at decides them (see the header).
      const CertifiedBracket bracket = saturation_bracket(d_tight, rhs);
      const auto reads_below = [&](double d) {
        ++counts_.lhs_evals;
        return lhs_at(d) < rhs;
      };
      double lo = 0.0, hi = d_tight;
      for (int iter = 0; iter < 64; ++iter) {
        const double mid = 0.5 * (lo + hi);
        // With mid at an end, this update leaves (lo, hi) final: every
        // later halving recomputes this mid and takes this branch.
        const bool fixed_point = mid == lo || mid == hi;
        if (bracket.below_at(mid, reads_below)) lo = mid;
        else hi = mid;
        if (fixed_point) break;
      }
      dstar = hi;
      if (dstar < 1e-13) adopt = true;  // numeric stall: force progress
    }

    // Apply the closed-form growth to every alive flush.
    if (dstar > 0) {
      grow_to(dstar);
      for (const Candidate& c : alive_) {
        double phi_new = (c.phi + eps_) * growth_[c.slot] - eps_;
        phi_new = std::min(phi_new, 1.0);
        const double delta = phi_new - c.phi;
        if (delta > 0) {
          vars_.increase(c.b, c.t, delta);
          increments_.push_back({c.b, c.t, delta, phi_new});
        }
      }
      dual_obj_ += dstar * static_cast<double>(cov_->cap() - sprime.f());
    }

    if (adopt) {
      // The tight flush becomes integral.
      const Candidate& win = alive_[chosen];
      const double topup = vars_.raise_to(win.b, win.t, 1.0);
      if (topup > 0) increments_.push_back({win.b, win.t, topup, 1.0});
      S_->add_flush(win.b, win.t);
      ++integral_flushes_;
    }
  }
  return increments_;
}

void FractionalBlockAware::grow_to(double d) {
  // exp(rate * d) once per distinct rate (coeff <= beta, so with equal
  // block costs there are at most beta of them).
  for (std::size_t r = 0; r < rates_.size(); ++r)
    growth_[r] = std::exp(rates_[r] * d);
}

double FractionalBlockAware::lhs_at(double d) {
  grow_to(d);
  double lhs = 0;
  for (const Candidate& c : alive_) {
    const double phi = std::min(1.0, (c.phi + eps_) * growth_[c.slot] - eps_);
    lhs += static_cast<double>(c.coeff) * phi;
  }
  return lhs;
}

CertifiedBracket FractionalBlockAware::saturation_bracket(double d_tight,
                                                         double rhs) {
  // Below d_tight no candidate's real phi reaches 1, so the real LHS is
  //   L(d) = sum_r W_r exp(r d) - eps * sum coeff,
  // W_r = sum of coeff * (phi + eps) over the candidates of rate r, with
  // phi + eps rounded as lhs_at rounds it. L is increasing and convex.
  weights_.assign(rates_.size(), 0.0);
  double coeffs = 0;
  for (const Candidate& c : alive_) {
    weights_[c.slot] += static_cast<double>(c.coeff) * (c.phi + eps_);
    coeffs += static_cast<double>(c.coeff);
  }
  // Newton's method on log(L + eps * sum coeff), a log-sum-exp and so also
  // convex: from d_tight, right of the root, it descends onto the root
  // without overshooting, in one step when one rate dominates.
  const double target = std::log(rhs + eps_ * coeffs);
  double d = d_tight;
  double slope = 0;  // L'(d)
  for (int iter = 0; iter < 32; ++iter) {
    double sum = 0;
    slope = 0;
    for (std::size_t r = 0; r < rates_.size(); ++r) {
      const double w = weights_[r] * std::exp(rates_[r] * d);
      sum += w;
      slope += rates_[r] * w;
    }
    const double step = (std::log(sum) - target) * sum / slope;
    if (!(step > 0)) break;  // at the root, as far as rounding tells
    if (!(step < d)) return {};  // a root at or below 0: no bracket
    d -= step;
    if (step <= d * 0x1p-52) break;
  }

  // lhs_at's error model on [0, d_tight] (u = 2^-53, n terms, x_max = the
  // largest r d there, at most ln(k beta + 1) up to rounding, and
  // std::exp within kExpUlps ulps): each term's phi + eps is off by at most
  // (x + 2 kExpUlps + 1) u of itself, its cap and its product with coeff add
  // 2 u of phi, and the add chain u of each partial sum, at most n u of
  // the LHS. So |lhs_at(d) - L(d)| <= rel L(d) + abs with
  const double x_max = log_term_ + 1.0;
  const double per_term = x_max + 2.0 * kExpUlps + 3.0;
  const double slack = 1.0 + 0x1p-20;  // second-order terms
  const ErrorModel model{
      0x1p-53 * (static_cast<double>(alive_.size()) + per_term + 1.0) * slack,
      0x1p-53 * per_term * eps_ * coeffs * slack};

  // Ends a few error widths either side of the root, inside (0, d_tight),
  // each certified by one reading.
  const double width = 8.0 * (model.rel * rhs + model.abs) / slope;
  return certify_bracket(d, width, 0.0, d_tight, [&](double end, bool lower) {
    ++counts_.lhs_evals;
    const double lhs = lhs_at(end);
    return lower ? certifies_below(lhs, rhs, model)
                 : certifies_above(lhs, rhs, model);
  });
}

}  // namespace bac
