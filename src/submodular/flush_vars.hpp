// Sparse storage for the fractional LP variables phi_B^t of LP (P).
//
// Per block we keep the (time, phi) pairs with phi > 0, sorted by time.
// Monotonicity is enforced: phi values only increase (the paper's
// "monotone-incremental" property, Section 3.3), which is exactly what the
// online rounding needs. Entries whose time is <= the block's current
// maximum integral flush time have zero marginal forever and can be skipped
// by constraint evaluations, but are retained so x-values and costs stay
// exact.
//
// Each block carries a stamp (see flush_coverage.hpp): the constructor
// gives every block a fresh one, and every increase() (so every raise_to()
// that raises) gives the touched block a fresh one. Equal stamps mean
// equal entries, across objects and copies.
#pragma once

#include <cstdint>
#include <vector>

#include "core/block_map.hpp"
#include "core/types.hpp"
#include "submodular/flush_coverage.hpp"

namespace bac {

class FlushVars {
 public:
  struct Entry {
    Time t = 0;
    double phi = 0;
  };

  explicit FlushVars(int n_blocks);

  [[nodiscard]] double get(BlockId b, Time t) const;

  /// Increase phi_b^t by delta (delta >= 0); returns the new value.
  double increase(BlockId b, Time t, double delta);

  /// Raise phi_b^t to at least v; returns the applied (non-negative) delta.
  double raise_to(BlockId b, Time t, double v);

  [[nodiscard]] const std::vector<Entry>& entries(BlockId b) const {
    return per_block_[static_cast<std::size_t>(b)];
  }

  /// Block b's stamp: equal stamps mean equal entries(b).
  [[nodiscard]] std::uint64_t stamp(BlockId b) const {
    return stamps_[static_cast<std::size_t>(b)];
  }

  /// Fractional eviction cost: sum over blocks of c_B * sum_{t >= 1} phi_B^t
  /// (time-0 flushes are free per the paper's convention).
  [[nodiscard]] Cost total_cost(const BlockMap& blocks) const;

  /// Sum of phi_b^t over stored entries with time > t0.
  [[nodiscard]] double mass_after(BlockId b, Time t0) const;

  /// x_p at the coverage's current tau, per the paper's (3.2):
  /// 1 if p was never requested, else min(1, sum_{u > r(p,tau)} phi_B^u).
  [[nodiscard]] double x_value(const FlushCoverage& cov, PageId p) const;

 private:
  std::vector<std::vector<Entry>> per_block_;
  std::vector<std::uint64_t> stamps_;
};

}  // namespace bac
