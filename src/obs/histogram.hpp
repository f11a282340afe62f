// Mergeable log-bucketed histogram (HDR-style) for the observability layer.
//
// The bucket layout is FIXED at compile time: one underflow bucket for
// values in [0, 2^kMinExp2) (and all non-positive values), kSubBuckets
// linearly spaced sub-buckets per power-of-two octave across
// [2^kMinExp2, 2^(kMaxExp2+1)), and one overflow bucket above that. With
// 16 sub-buckets per octave the relative resolution is <= 1/16 of the
// value. Because every histogram shares the same layout, merge() is a
// plain vector add of bucket counts — associative and commutative — so
// per-shard / per-thread histograms can be folded at snapshot time in any
// order and the bucket counts (and hence quantile estimates) come out
// identical. min/max/count merge exactly; sum is a float add, so its last
// bits may depend on merge order (never checksum it).
//
// NaN observations are ignored; +inf lands in the overflow bucket.
// Quantiles report the midpoint of the bucket containing the requested
// order statistic (0 for the underflow bucket), clamped to the observed
// [min, max] — deterministic given identical samples, and within one
// bucket width of the exact sorted-sample answer. All summary accessors
// return NaN when empty: a default of 0.0 would read as a real
// observation, e.g. a fake 0.0 minimum latency.
#pragma once

#include <cstdint>
#include <vector>

namespace bac::obs {

class Histogram {
 public:
  static constexpr int kMinExp2 = -32;
  static constexpr int kMaxExp2 = 63;
  static constexpr int kSubBuckets = 16;
  static constexpr int kOctaves = kMaxExp2 - kMinExp2 + 1;
  /// underflow + kOctaves * kSubBuckets log-linear buckets + overflow.
  static constexpr int kBucketCount = 1 + kOctaves * kSubBuckets + 1;

  void add(double v) noexcept { add_n(v, 1); }
  /// Record `n` observations of value `v` (NaN is ignored).
  void add_n(double v, std::uint64_t n) noexcept;
  /// Fold `other` in: bucket-wise count add, exact min/max/count merge.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Sum of observations (float accumulation — merge-order sensitive).
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept;   ///< exact; NaN when empty
  [[nodiscard]] double max() const noexcept;   ///< exact; NaN when empty
  [[nodiscard]] double mean() const noexcept;  ///< NaN when empty
  /// Bucket-midpoint estimate of the q-quantile (order statistic at
  /// 0-based rank floor(q*count), clamped); NaN when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  /// Visit (bucket_index, count) for every non-empty bucket in index order.
  template <class Fn>
  void for_each_nonzero(Fn&& fn) const {
    for (int b = 0; b < static_cast<int>(counts_.size()); ++b)
      if (counts_[static_cast<std::size_t>(b)] != 0)
        fn(b, counts_[static_cast<std::size_t>(b)]);
  }

  /// Bucket index a value lands in (pure function of the fixed layout).
  [[nodiscard]] static int bucket_of(double v) noexcept;
  /// Inclusive lower bound of bucket `b` (0 for the underflow bucket).
  [[nodiscard]] static double bucket_lower(int b) noexcept;
  /// Exclusive upper bound of bucket `b` (+inf for the overflow bucket).
  [[nodiscard]] static double bucket_upper(int b) noexcept;

  /// True when the two histograms hold identical bucket counts (sum is
  /// deliberately excluded: it is merge-order sensitive). Stays for the
  /// tests, which check with it that merge() is independent of order.
  [[nodiscard]] bool same_counts(const Histogram& other) const noexcept;

 private:
  std::vector<std::uint64_t> counts_;  ///< lazily sized to kBucketCount
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  ///< valid only when count_ > 0
  double max_ = 0.0;
};

}  // namespace bac::obs
