#include "algs/policies/fractional_paging.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace bac {

namespace {

/// Insert q into the ascending list `list` unless it holds q already.
void insert_sorted(std::vector<PageId>& list, PageId q) {
  const auto at = std::lower_bound(list.begin(), list.end(), q);
  if (at == list.end() || *at != q) list.insert(at, q);
}

}  // namespace

FractionalWeightedPaging::FractionalWeightedPaging(BlockMap blocks, int k)
    : blocks_(std::move(blocks)), k_(k), inv_k_(1.0 / static_cast<double>(k)) {
  if (k <= 0)
    throw std::invalid_argument("FractionalWeightedPaging: k must be positive");
  const auto n = static_cast<std::size_t>(blocks_.n_pages());
  x_.assign(n, 1.0);  // everything starts missing (empty cache)
  for (BlockId b = 0; b < blocks_.n_blocks(); ++b)
    class_cost_.push_back(blocks_.cost(b));
  std::sort(class_cost_.begin(), class_cost_.end());
  class_cost_.erase(std::unique(class_cost_.begin(), class_cost_.end()),
                    class_cost_.end());
  growth_.resize(class_cost_.size());
  for (const double c : class_cost_) inv_cost_.push_back(1.0 / c);
  class_of_.resize(n);
  for (PageId q = 0; q < blocks_.n_pages(); ++q)
    class_of_[static_cast<std::size_t>(q)] = static_cast<std::size_t>(
        std::lower_bound(class_cost_.begin(), class_cost_.end(),
                         blocks_.cost(blocks_.block_of(q))) -
        class_cost_.begin());
}

void FractionalWeightedPaging::grow_classes(double s) {
  for (std::size_t j = 0; j < class_cost_.size(); ++j)
    growth_[j] = std::exp(s / class_cost_[j]);
}

const std::vector<PageId>& FractionalWeightedPaging::walk() const {
  // A page at x = 1 grows to min(1, (1 + 1/k) g - 1/k): it stays put
  // unless that is below 1.
  for (const double g : growth_)
    if ((1.0 + inv_k_) * g - inv_k_ < 1.0) return seen_list_;
  return partial_;
}

double FractionalWeightedPaging::grown(std::size_t q) const {
  return std::min(1.0, (x_[q] + inv_k_) * growth_[class_of_[q]] - inv_k_);
}

double FractionalWeightedPaging::mass(PageId p) const {
  double mass = 0;
  for (const PageId q : walk())
    if (q != p) mass += 1.0 - grown(static_cast<std::size_t>(q));
  return mass + 1.0;  // the requested page contributes 1 - x_p = 1
}

double FractionalWeightedPaging::least_fitting_growth(PageId p) {
  const double k = static_cast<double>(k_);
  // Estimate: Newton from g = 1 on the real-valued mass M(g) = 1 + the sum
  // over q in partial_, q != p, of max(0, 1 + 1/k - (x_q + 1/k) g). M is
  // piecewise linear, convex and decreasing, so Newton approaches its root
  // from below; once a pass finds as many active terms as the one before
  // (the set only shrinks as g grows, so this ends), the last step solved
  // the right linear piece. Any estimate will do: exactness comes from the
  // search after it.
  double g = 1.0;
  std::size_t active_before = partial_.size() + 1;
  for (;;) {
    double m = 1.0;
    double slope = 0.0;
    std::size_t active = 0;
    for (const PageId q : partial_) {
      if (q == p) continue;
      const double a = x_[static_cast<std::size_t>(q)] + inv_k_;
      const double term = 1.0 + inv_k_ - a * g;
      if (term > 0) {
        m += term;
        slope += a;
        ++active;
      }
    }
    if (m <= k || active == active_before) break;
    g += (m - k) / slope;
    active_before = active;
  }

  // Exact: gallop from the estimate to bits lo < hi with mass(lo) > k >=
  // mass(hi), then bisect the bit patterns until they are adjacent. The
  // bounds need no evaluation: +0.0 is below every positive double, and
  // at +inf every page grows to 1, so the mass is 1 <= k.
  using Bits = std::uint64_t;
  constexpr Bits kInf =
      std::bit_cast<Bits>(std::numeric_limits<double>::infinity());
  const auto fits = [&](Bits b) {
    growth_[0] = std::bit_cast<double>(b);
    ++counts_.mass_evals;
    return mass(p) <= k;
  };
  Bits lo = std::bit_cast<Bits>(g);
  Bits hi = lo;
  if (fits(hi)) {
    for (Bits step = 1;; step *= 2) {
      if (hi <= step) {
        lo = 0;
        break;
      }
      if (!fits(hi - step)) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  } else {
    for (Bits step = 1;; step *= 2) {
      if (kInf - lo <= step) {
        hi = kInf;
        break;
      }
      if (fits(lo + step)) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  }
  while (hi - lo > 1) {
    const Bits mid = lo + (hi - lo) / 2;
    if (fits(mid)) hi = mid;
    else lo = mid;
  }
  return std::bit_cast<double>(hi);
}

CertifiedBracket FractionalWeightedPaging::growth_bracket(double g_star) {
  // Ends a few error widths (and a few ulps of y*) either side of y* =
  // log g*, each certified by one std::exp reading, then carried back to
  // s through y = fl(s / c).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double y_star = std::log(g_star);
  const double width = 8.0 * kExpModel.rel + std::abs(y_star) * 0x1p-50;
  const CertifiedBracket in_y = certify_bracket(
      y_star, width, -kInf, kInf, [&](double y, bool lower) {
        ++counts_.exp_reads;
        const double g = std::exp(y);
        return lower ? certifies_below(g, g_star, kExpModel)
                     : certifies_above(g, g_star, kExpModel);
      });
  return quotient_preimage(in_y, class_cost_[0]);
}

CertifiedBracket FractionalWeightedPaging::mass_bracket(PageId p) {
  const double k = static_cast<double>(k_);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Estimate: Newton's method on the real-valued mass M(s) = 1 + the sum
  // over q in partial_, q != p, of max(0, 1 + 1/k - a_q e^(s / c_q)), a_q
  // = x_q + 1/k, safeguarded by the bracket [lo, hi] of its own passes.
  // On each linear piece M is concave and decreasing, so from s = 0 the
  // first step lands right of the root and the later ones descend onto
  // it. The margin is how far the mass moves when every growth moves by
  // the exp model's bound (below), plus its rounding noise; the passes
  // stop once a step's own quadratic error, -M'' step^2 / 2, is within it.
  const double noise =
      0x1p-53 * k * std::sqrt(static_cast<double>(partial_.size()));
  double lo = 0.0, hi = kInf, s = 0.0;
  double slope = 0.0;  // -M'(s)
  double margin = 0.0;
  for (int pass = 0; pass < 64; ++pass) {
    grow_classes(s);
    double m = 1.0;
    double load = 0.0;       // sum of a_q e^(s / c_q) over active terms
    double curvature = 0.0;  // -M''(s)
    slope = 0.0;
    for (const PageId q : partial_) {
      if (q == p) continue;
      const auto i = static_cast<std::size_t>(q);
      const double inv_c = inv_cost_[class_of_[i]];
      const double grown = (x_[i] + inv_k_) * growth_[class_of_[i]];
      if (grown < 1.0 + inv_k_) {
        m += 1.0 + inv_k_ - grown;
        load += grown;
        slope += grown * inv_c;
        curvature += grown * inv_c * inv_c;
      }
    }
    margin = 4.0 * kExpModel.rel * load + noise;
    if (m > k) lo = s;
    else hi = s;
    const double step = (m - k) / slope;
    if (slope > 0 && 0.5 * curvature * step * step <= margin) {
      s += step;
      break;
    }
    s += step;
    if (!(s > lo && s < hi))
      s = hi < kInf ? 0.5 * (lo + hi) : std::max(2.0 * lo, 1.0);
  }

  // Ends two margins either side of the estimate, inside (0, inf), each
  // certified by one exact evaluation of the mass at bounds on every
  // class's growth: every s' <= end reads growths at most the
  // reading_ceiling of the std::exp readings at end, every s' >= end at
  // least their reading_floor, and the mass never rises as a growth rises
  // (see the header). A reading of +inf means e^y is about the largest
  // double or more, so its floor is taken from that double.
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  return certify_bracket(
      s, 2.0 * margin / slope, 0.0, kInf, [&](double end, bool lower) {
        for (std::size_t j = 0; j < class_cost_.size(); ++j) {
          const double g = std::exp(end / class_cost_[j]);
          growth_[j] =
              lower ? reading_ceiling(g, kExpModel)
                    : reading_floor(std::min(g, kMaxDouble), kExpModel);
        }
        ++counts_.mass_evals;
        const double mass_bound = mass(p);
        return lower ? mass_bound > k : mass_bound <= k;
      });
}

void FractionalWeightedPaging::grow_to(double s, PageId p, double p_from) {
  grow_classes(s);
  next_partial_.clear();
  moved_.clear();
  moved_from_.clear();
  for (const PageId q : walk()) {
    if (q == p) {
      next_partial_.push_back(p);
      if (p_from > 0) {
        moved_.push_back(p);
        moved_from_.push_back(p_from);
      }
      continue;
    }
    const auto i = static_cast<std::size_t>(q);
    const double from = x_[i];
    const double to = grown(i);
    if (to != from) {
      x_[i] = to;
      moved_.push_back(q);
      moved_from_.push_back(from);
    }
    if (to < 1.0) next_partial_.push_back(q);
  }
  partial_.swap(next_partial_);
}

void FractionalWeightedPaging::charge_fetches() {
  // Mass decreases are fractional fetches; only moved pages can have one.
  drops_.clear();
  for (std::size_t m = 0; m < moved_.size(); ++m) {
    const auto q = static_cast<std::size_t>(moved_[m]);
    const double dec = moved_from_[m] - x_[q];
    if (dec > 0) {
      fetch_cost_ += class_cost_[class_of_[q]] * dec;
      drops_.emplace_back(blocks_.block_of(moved_[m]), dec);
    }
  }
  // One charge per block, its largest decrease, in ascending block order.
  std::sort(drops_.begin(), drops_.end());
  for (std::size_t d = 0; d < drops_.size();) {
    const BlockId b = drops_[d].first;
    double max_dec = 0;
    for (; d < drops_.size() && drops_[d].first == b; ++d)
      max_dec = std::max(max_dec, drops_[d].second);
    block_fetch_cost_ += blocks_.cost(b) * max_dec;
  }
}

const std::vector<double>& FractionalWeightedPaging::step(PageId p) {
  const auto ip = static_cast<std::size_t>(p);
  const double p_from = x_[ip];
  if (p_from >= 1.0) {  // unseen, or seen and back at 1: not in partial_
    insert_sorted(seen_list_, p);
    insert_sorted(partial_, p);
  }
  x_[ip] = 0.0;

  const double k = static_cast<double>(k_);
  double cached = 0;
  for (const PageId q : partial_)
    cached += 1.0 - x_[static_cast<std::size_t>(q)];
  if (cached > k) {
    // Grow missing masses of all other seen pages along the exponential
    // dynamics x_q(s) = (x_q + 1/k) * exp(s / c_q) - 1/k, finding the
    // "time" s at which the fractional cache exactly fits via bisection
    // (the cached mass is strictly decreasing in s). With one cost class
    // the mass exceeds k exactly when exp(s / c) < g* (see the header).
    // Each question is read from a certified bracket where it can be, and
    // answered as the plain bisection answers it.
    ++counts_.bisections;
    const bool one_class = class_cost_.size() == 1;
    const double g_star = one_class ? least_fitting_growth(p) : 0.0;
    const CertifiedBracket bracket =
        one_class ? growth_bracket(g_star) : mass_bracket(p);
    const auto reads_overfull = [&](double s) {
      if (one_class) {
        ++counts_.exp_reads;
        return std::exp(s / class_cost_[0]) < g_star;
      }
      grow_classes(s);
      ++counts_.mass_evals;
      return mass(p) > k;
    };
    const auto overfull = [&](double s) {
      ++counts_.halvings;
      return bracket.below_at(s, reads_overfull);
    };

    double lo = 0.0, hi = 1.0;
    while (overfull(hi)) hi *= 2.0;
    for (int iter = 0; iter < 100; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (mid == lo || mid == hi) break;  // fixed point: nothing moves again
      if (overfull(mid)) lo = mid;
      else hi = mid;
    }
    grow_to(hi, p, p_from);
  } else {
    moved_.clear();
    moved_from_.clear();
    if (p_from > 0) {
      moved_.push_back(p);
      moved_from_.push_back(p_from);
    }
  }
  charge_fetches();
  return x_;
}

}  // namespace bac
