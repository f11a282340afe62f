// Theorem 4.1 as an *online policy*: deterministic threshold rounding of
// the online fractional weighted-paging solution, with the space blow-up
// absorbed internally.
//
// The policy runs the BBN12a fractional dynamics with a *half-size*
// virtual cache h = max(1, floor(k/2)), for every beta <= k, and keeps
// cached exactly the pages with x <= 1/2: each step it evicts the pages
// whose x rose above 1/2 and fetches the request. One procedure serves
// both cost models. Why that is Theorem 4.1's rounding, and exact:
//   - The substrate lowers x only for the requested page p, to 0; every
//     other page's x only grows. So after every step the cached set is
//     {q : x_q <= 1/2}, and the pages that leave it are among moved().
//   - The online rounding never batch-fetches. Theorem 4.1's miss fetches
//     every page of B(p) with x <= 1/2, but every such page other than p
//     is cached already. Likewise the Section 4.1 eviction variant, which
//     flushes a crossed block's pages above 1/2, evicts exactly the moved,
//     cached pages now above 1/2. The two registry names (Mode) choose
//     which cost the 2x bound is stated for; their runs are identical.
//   - The rounded cache fits. The substrate keeps sum_q (1 - x_q) <= h;
//     p contributes 1 and every other cached page at least 1/2, so for
//     k >= 2 at most 2h - 1 <= k - 1 pages are cached, and for k = 1 only
//     p. No capacity guard is needed; the step kernel's audit still throws
//     on any overflow.
// Guarantee, on every instance: the batched fetch cost is at most twice
// fractional_block_fetch(), the fractional block-batched cost of an
// O(log h)-competitive fractional solution with cache h, i.e. an online
// deterministic (h, 2h)-bicriteria algorithm (Corollary 4.2's "k = 2h
// matches classical caching", played out online). Where beta > floor(k/2)
// the fractional cache holds fewer pages than a block.
//
// One floating-point caveat: fl(fl(x + 1/h) * g) - 1/h can fall one ulp
// below x (fractional_paging.hpp: for g = 1, at about a quarter of all
// h). A page that fell from just above 1/2 to 1/2 would join {x <= 1/2}
// uncached; Theorem 4.1's batch fetch would bring it with a block-mate's
// miss, this policy does not. The frozen twin
// verify::ReferenceThresholdBicriteria keeps the batch fetch, so its
// bit-for-bit diff against this policy is the check.
#pragma once

#include <optional>

#include "algs/policies/fractional_paging.hpp"
#include "core/policy.hpp"

namespace bac {

class ThresholdBicriteriaPolicy final : public OnlinePolicy {
 public:
  /// Names the cost model the 2x bound is stated for; both run the same
  /// procedure.
  enum class Mode { Fetching, Eviction };

  explicit ThresholdBicriteriaPolicy(Mode mode) : mode_(mode) {}

  [[nodiscard]] std::string name() const override {
    return mode_ == Mode::Fetching ? "BA-Bicrit(fetch,2h)"
                                   : "BA-Bicrit(evict,2h)";
  }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    return std::make_unique<ThresholdBicriteriaPolicy>(*this);
  }

  /// The fractional substrate's block-batched fetch cost (the comparison
  /// baseline of the 2x guarantee).
  [[nodiscard]] double fractional_block_fetch() const {
    return frac_->block_fetch_cost();
  }

  /// The substrate's bisection counts (FractionalWeightedPaging::Counts)
  /// as policy_growth_*_total counters.
  void export_metrics(obs::MetricRegistry& registry) const override;

 private:
  Mode mode_;
  std::optional<FractionalWeightedPaging> frac_;
};

}  // namespace bac
