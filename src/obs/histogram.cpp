#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bac::obs {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}  // namespace

int Histogram::bucket_of(double v) noexcept {
  if (!(v > 0.0)) return 0;  // zero, negatives (NaN is filtered in add_n)
  if (std::isinf(v)) return kBucketCount - 1;
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int octave = exp - 1;            // v in [2^octave, 2^(octave+1))
  if (octave < kMinExp2) return 0;
  if (octave > kMaxExp2) return kBucketCount - 1;
  int sub = static_cast<int>((m - 0.5) * (2 * kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + (octave - kMinExp2) * kSubBuckets + sub;
}

double Histogram::bucket_lower(int b) noexcept {
  if (b <= 0) return 0.0;
  if (b >= kBucketCount - 1) return std::ldexp(1.0, kMaxExp2 + 1);
  const int i = b - 1;
  const int octave = kMinExp2 + i / kSubBuckets;
  const int sub = i % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
}

double Histogram::bucket_upper(int b) noexcept {
  if (b < 0) return 0.0;
  if (b >= kBucketCount - 1) return std::numeric_limits<double>::infinity();
  return bucket_lower(b + 1);
}

void Histogram::add_n(double v, std::uint64_t n) noexcept {
  if (n == 0 || std::isnan(v)) return;
  if (counts_.empty()) counts_.assign(kBucketCount, 0);
  counts_[static_cast<std::size_t>(bucket_of(v))] += n;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += n;
  sum_ += v * static_cast<double>(n);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (counts_.empty()) counts_.assign(kBucketCount, 0);
  for (std::size_t b = 0; b < other.counts_.size(); ++b)
    counts_[b] += other.counts_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::min() const noexcept { return count_ ? min_ : kNaN; }

double Histogram::max() const noexcept { return count_ ? max_ : kNaN; }

double Histogram::mean() const noexcept {
  return count_ ? sum_ / static_cast<double>(count_) : kNaN;
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return kNaN;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  std::uint64_t rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (rank >= count_) rank = count_ - 1;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    cum += counts_[b];
    if (cum > rank) {
      // The underflow bucket holds zeros and negatives as well as tiny
      // positives, so it reports 0 rather than its midpoint (~1.2e-10).
      const int bi = static_cast<int>(b);
      const double lo = bucket_lower(bi);
      const double hi = bucket_upper(bi);
      const double mid =
          bi == 0 ? 0.0 : std::isinf(hi) ? lo : lo + (hi - lo) * 0.5;
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;  // unreachable when counts are consistent
}

bool Histogram::same_counts(const Histogram& other) const noexcept {
  // counts_ is sized by the first observation, so both are sized or empty.
  return count_ == other.count_ && counts_ == other.counts_;
}

}  // namespace bac::obs
