// A certified bracket for a bisection on a computed, rounded function.
//
// A bisection that asks at each midpoint "is x below the root?", by
// reading f^(x) against rhs, where f^ is a floating-point evaluation of a
// monotone real function F, can answer most midpoints without evaluating
// f^ once two facts are known:
//
//   * an error model: |f^(x) - F(x)| <= rel * F(x) + abs for every x of
//     the domain the bisection runs in (F >= 0 there);
//   * one reading f^(x0) at each end of a bracket [below, above].
//
// When F rises, "below the root" reads f^(x) < rhs; when F falls, it
// reads f^(x) above rhs. Either way every x <= below reads "below" and
// every x >= above does not (certify_bracket, with certifies_below /
// certifies_above deciding one reading under the model), so only the
// midpoints strictly between the two ends need f^. A bisection that
// consults the bracket first takes exactly the branches it would take by
// evaluating every midpoint, so it ends on the same bits.
//
// A reading also bounds every other reading on its side (reading_ceiling,
// reading_floor). A function that is monotone in several such readings,
// as the several-cost mass is in each class's std::exp reading, is
// certified at an end by one exact evaluation at those bounds, with no
// error model for the function itself.
//
// Where the ends come from (a root estimate of F, say by Newton's method)
// does not matter for exactness, only for how many midpoints fall between
// them. An end that fails to certify stays open (-inf / +inf), and the
// bisection evaluates those midpoints as it did without a bracket.
#pragma once

#include <cmath>
#include <limits>

namespace bac {

/// std::exp's largest error, in ulps of its result, that every bracket
/// over a std::exp reading assumes: the one libm assumption of the
/// certified bisections (tests/test_fractional.cpp samples it against
/// expl over every argument they rely on).
inline constexpr double kExpUlps = 2;

/// |f^(x) - F(x)| <= rel * F(x) + abs on the domain; 8 u <= rel < 1/8
/// (u = 2^-53).
struct ErrorModel {
  double rel = 0;
  double abs = 0;
};

/// The largest reading f^(x) any x with F(x) <= F(x0) can give, from
/// the reading value = f^(x0). There F(x) <= (value + abs) / (1 - rel),
/// so f^(x) <= (value + abs) (1 + rel) / (1 - rel) + abs <= (value + abs)
/// (1 + 3 rel) + abs. This computes (value + abs) * (1 + 4 rel) + 2 abs;
/// with rel >= 8 u its four roundings cannot pull it below that bound.
[[nodiscard]] inline double reading_ceiling(double value, ErrorModel e) {
  return (value + e.abs) * (1.0 + 4.0 * e.rel) + 2.0 * e.abs;
}

/// The smallest reading f^(x) any x with F(x) >= F(x0) can give, from
/// the reading value = f^(x0). There F(x) >= (value - abs) / (1 + rel),
/// so f^(x) >= (value - abs) (1 - rel) / (1 + rel) - abs >= (value - abs)
/// (1 - 2 rel) - abs. This computes (value - abs) * (1 - 4 rel) - 2 abs;
/// with rel >= 8 u its four roundings cannot push it above that bound.
[[nodiscard]] inline double reading_floor(double value, ErrorModel e) {
  return (value - e.abs) * (1.0 - 4.0 * e.rel) - 2.0 * e.abs;
}

/// std::exp as a reading of exp: within kExpUlps ulps of its result, so
/// |std::exp(y) - e^y| <= U 2^-52 e^y (1 + 2^-50) wherever the result is
/// normal and finite; twice U 2^-52 covers the last factor and is >= 8 u.
inline constexpr ErrorModel kExpModel{2.0 * kExpUlps * 0x1p-52, 0.0};

/// Does the reading f^(x0) = value certify that every x with F(x) <=
/// F(x0) reads f^(x) < rhs?
[[nodiscard]] inline bool certifies_below(double value, double rhs,
                                          ErrorModel e) {
  return reading_ceiling(value, e) < rhs;
}

/// Does the reading f^(x0) = value certify that every x with F(x) >=
/// F(x0) reads f^(x) >= rhs?
[[nodiscard]] inline bool certifies_above(double value, double rhs,
                                          ErrorModel e) {
  return value >= e.abs && reading_floor(value, e) >= rhs;
}

/// The certified ends; open ends certify nothing.
struct CertifiedBracket {
  double below = -std::numeric_limits<double>::infinity();
  double above = std::numeric_limits<double>::infinity();

  /// Is x below the root? Read from the bracket where it certifies the
  /// answer, and from `reads_below(x)` (which evaluates f^) only in
  /// between.
  template <typename ReadsBelow>
  [[nodiscard]] bool below_at(double x, ReadsBelow&& reads_below) const {
    if (x <= below) return true;
    if (x >= above) return false;
    return reads_below(x);
  }
};

/// Estimate, then certify: the candidate ends root - width and root +
/// width are tried only inside the open domain (lo, hi), each with one
/// reading. `certifies(end, true)` reads at the lower end and says
/// whether every x <= end is below the root; `certifies(end, false)`
/// reads at the upper end and says whether every x >= end is not. An end
/// that fails to certify, or is not tried, stays open.
template <typename Certifies>
[[nodiscard]] CertifiedBracket certify_bracket(double root, double width,
                                               double lo, double hi,
                                               Certifies&& certifies) {
  CertifiedBracket bracket;
  if (!(width > 0)) return bracket;
  if (const double below = root - width; below > lo && certifies(below, true))
    bracket.below = below;
  if (const double above = root + width;
      above < hi && certifies(above, false))
    bracket.above = above;
  return bracket;
}

/// The bracket `y` carried back to x through y = fl(x / c), c > 0, which
/// never decreases as x grows: below becomes the largest x with fl(x / c)
/// <= y.below and above the smallest x with fl(x / c) >= y.above, so
/// every x <= below has fl(x / c) <= y.below and every x >= above has
/// fl(x / c) >= y.above. Each end is searched from fl(y * c), a few ulps
/// from it; one not found within 16 ulps stays open.
[[nodiscard]] inline CertifiedBracket quotient_preimage(
    const CertifiedBracket& y, double c) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // From fl(end * c), step toward `open` until x is on the end's side,
  // then away from `open` while the next x still is.
  const auto pull_back = [c](double end, double open, auto on_side) {
    if (!std::isfinite(end)) return open;
    double at = end * c;
    int ulps = 0;
    while (std::isfinite(at) && !on_side(at) && ulps++ < 16)
      at = std::nextafter(at, open);
    if (!std::isfinite(at) || !on_side(at)) return open;
    while (ulps++ < 16 && on_side(std::nextafter(at, -open)))
      at = std::nextafter(at, -open);
    return at;
  };
  return {pull_back(y.below, -kInf,
                    [&](double x) { return x / c <= y.below; }),
          pull_back(y.above, kInf,
                    [&](double x) { return x / c >= y.above; })};
}

}  // namespace bac
