#include "util/zipf_sampler.hpp"

#include <cmath>
#include <stdexcept>

namespace bac {

ZipfSampler::ZipfSampler(int n, double alpha) {
  if (n < 1) throw std::invalid_argument("ZipfSampler: n must be positive");
  const auto size = static_cast<std::size_t>(n);
  cum_.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    total_ += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cum_[i] = total_;
  }
  // guide_[j] is the first i whose cell is j or later, under the cell
  // function index() uses. A non-finite or zero total leaves scale_ at 0
  // or NaN: every value then lands in cell 0 or the last cell, and the
  // checked walk and the fallback search still answer exactly.
  guide_.resize(size);
  scale_ = static_cast<double>(size) / total_;
  last_cell_ = static_cast<double>(size - 1);
  const auto cell = [&](double u) {
    const double x = u * scale_;
    return x >= 0.0 && x < last_cell_ ? static_cast<std::size_t>(x)
                                      : size - 1;
  };
  std::size_t j = 0;
  for (std::size_t i = 0; i < size && j < size; ++i)
    for (const std::size_t c = cell(cum_[i]); j <= c; ++j)
      guide_[j] = static_cast<std::int32_t>(i);
  for (; j < size; ++j) guide_[j] = static_cast<std::int32_t>(size - 1);
}

int ZipfSampler::search(double u) const {
  const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cum_.begin(), static_cast<std::ptrdiff_t>(cum_.size()) - 1));
}

}  // namespace bac
