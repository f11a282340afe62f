// Exact inverse-CDF sampling of zipf-distributed indices, shared by the
// synthetic generators (trace/generators.hpp) and SyntheticSource.
//
// The table holds the weights 1/(i+1)^alpha summed in index order, and a
// draw u = uniform() * total maps to the first index whose cumulative
// weight reaches u (clamped to n - 1); every zipf and blocklocal stream
// is pinned to exactly these bits. A plain std::lower_bound over the
// table costs ~log2(n) dependent cache misses per draw (14 at n = 2^14,
// a 128 KB table).
//
// A guide table (Chen & Asau 1974) removes them. It splits [0, total)
// into G <= n equal cells and stores, per cell, the first index whose
// cumulative weight falls in that cell or a later one. A draw reads
// its cell's entry and walks forward past the few weights below u.
// The cell of a value is computed by the same floating-point expression
// at build and at draw time, and that expression is monotone, so the
// entry never lies past the answer. Every guided answer is still
// checked against its neighbours, (i == 0 || cum[i-1] < u) and
// cum[i] >= u, and the full binary search runs when the check fails:
// a draw returns exactly min(lower_bound(cum, u) - cum.begin(), n - 1)
// for every u, NaN and values past the total included.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace bac {

class ZipfSampler {
 public:
  /// An empty sampler; index() and draw() need a built one.
  ZipfSampler() = default;
  /// Weights 1/(i+1)^alpha over indices [0, n). Throws
  /// std::invalid_argument when n < 1.
  ZipfSampler(int n, double alpha);

  /// Sum of all weights, the scale a uniform [0, 1) draw is mapped by.
  [[nodiscard]] double total() const noexcept { return total_; }
  /// The cumulative weights: cum[i] is the sum of weights 0..i.
  [[nodiscard]] const std::vector<double>& cumulative() const noexcept {
    return cum_;
  }

  /// min(lower_bound(cum, u) - cum.begin(), n - 1), via the guide table.
  [[nodiscard]] int index(double u) const {
    const double x = u * scale_;
    const std::int32_t first =
        x >= 0.0 && x < last_cell_ ? guide_[static_cast<std::size_t>(x)]
                                   : guide_.back();
    auto i = static_cast<std::size_t>(first);
    const std::size_t last = cum_.size() - 1;
    while (i < last && cum_[i] < u) ++i;
    if ((i == 0 || cum_[i - 1] < u) && cum_[i] >= u)
      return static_cast<int>(i);
    return search(u);
  }

  /// One draw: index(rng.uniform() * total()).
  [[nodiscard]] int draw(Xoshiro256pp& rng) const {
    return index(rng.uniform() * total_);
  }

 private:
  /// The plain binary search the guide table stands in for.
  [[nodiscard]] int search(double u) const;

  std::vector<double> cum_;
  std::vector<std::int32_t> guide_;  ///< first index per cell, G = n cells
  double total_ = 0;
  double scale_ = 0;      ///< cells per unit of weight, G / total
  double last_cell_ = 0;  ///< G - 1: cells at or past it read guide_.back()
};

}  // namespace bac
