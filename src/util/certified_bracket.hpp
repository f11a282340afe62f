// A certified bracket for a bisection on a computed, rounded function.
//
// A bisection that asks "does f^(x) read below rhs?" at each midpoint,
// where f^ is a floating-point evaluation of a nondecreasing real function
// F, can answer most midpoints without evaluating f^ once two facts are
// known:
//
//   * an error model: |f^(x) - F(x)| <= rel * F(x) + abs for every x of
//     the domain the bisection runs in (F >= 0 there);
//   * one reading f^(x0) at each end of a bracket [below, above].
//
// Then every x <= below reads f^(x) < rhs and every x >= above reads
// f^(x) >= rhs (see certifies_below / certifies_above), so only the
// midpoints strictly between the two ends need f^. A bisection that
// consults the bracket first takes exactly the branches it would take
// by evaluating every midpoint, so it ends on the same bits.
//
// Where the ends come from (a root estimate of F, say by Newton's method)
// does not matter for exactness, only for how many midpoints fall between
// them. An end that fails to certify stays open (-inf / +inf), and the
// bisection evaluates those midpoints as it did without a bracket.
#pragma once

#include <limits>

namespace bac {

/// |f^(x) - F(x)| <= rel * F(x) + abs on the domain; rel < 1/8.
struct ErrorModel {
  double rel = 0;
  double abs = 0;
};

/// Does the reading f^(x0) = value certify that every x <= x0 of the
/// domain reads f^(x) < rhs? There F(x) <= F(x0) <= (value + abs) /
/// (1 - rel), so f^(x) <= (value + abs) (1 + rel) / (1 - rel) + abs
/// <= (value + abs) (1 + 3 rel) + abs. The test computes (value + abs) *
/// (1 + 4 rel) + 2 abs; with rel >= 8 u (u = 2^-53) its four roundings
/// cannot pull it below that bound.
[[nodiscard]] inline bool certifies_below(double value, double rhs,
                                          ErrorModel e) {
  return (value + e.abs) * (1.0 + 4.0 * e.rel) + 2.0 * e.abs < rhs;
}

/// Does the reading f^(x0) = value certify that every x >= x0 of the
/// domain reads f^(x) >= rhs? There F(x) >= F(x0) >= (value - abs) /
/// (1 + rel), so f^(x) >= (value - abs) (1 - rel) / (1 + rel) - abs
/// >= (value - abs) (1 - 2 rel) - abs when value >= abs. The test
/// computes (value - abs) * (1 - 4 rel) - 2 abs; with rel >= 8 u its four
/// roundings cannot push it above that bound.
[[nodiscard]] inline bool certifies_above(double value, double rhs,
                                          ErrorModel e) {
  return value >= e.abs &&
         (value - e.abs) * (1.0 - 4.0 * e.rel) - 2.0 * e.abs >= rhs;
}

/// The certified ends; open ends certify nothing.
struct CertifiedBracket {
  double below = -std::numeric_limits<double>::infinity();
  double above = std::numeric_limits<double>::infinity();

  /// f^(x) < rhs, read from the bracket where it certifies the answer and
  /// from `reads_below(x)` (which evaluates f^) only in between.
  template <typename ReadsBelow>
  [[nodiscard]] bool below_at(double x, ReadsBelow&& reads_below) const {
    if (x <= below) return true;
    if (x >= above) return false;
    return reads_below(x);
  }
};

}  // namespace bac
