// Streaming statistics (Welford) and small summary helpers used by the
// benchmark harness to aggregate Monte-Carlo trials.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace bac {

/// Single-pass mean/variance accumulator (numerically stable Welford).
class StreamingStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Quantile of a sample (linear interpolation); makes its own sorted copy.
/// Stays for the tests: the exact reference the step-cost sketch's
/// quantiles are compared against.
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// Least-squares slope of y against x; used to check O(log k) style growth.
[[nodiscard]] double regression_slope(const std::vector<double>& x,
                                      const std::vector<double>& y);

/// Format `x` with `digits` significant fraction digits.
[[nodiscard]] std::string fmt_double(double x, int digits = 3);

}  // namespace bac
