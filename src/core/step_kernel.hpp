// The one definition of a time step, shared by every live run: simulate()'s
// two lanes, the sharded server's CacheShard and the adaptive adversary.
//
// The model (Section 2) charges a block at most once per time step, so
// what a step is fixes every cost the library reports. A step advances t,
// opens the meter's batching window, counts a hit or a miss, hands the
// request to the policy, and audits the result: the requested page must be
// cached and the cache must hold at most k pages. A failed audit throws —
// no caller repairs a broken policy. Time is 32-bit throughout the policy
// layer, and policies compute t + 1 (the alive time of a page requested
// at t), so the kernel serves steps 1..2^31 - 2 and refuses step 2^31 - 1
// rather than overflow.
#pragma once

#include <cstdint>
#include <limits>

#include "core/cache_set.hpp"
#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/types.hpp"

namespace bac {

class StepKernel {
 public:
  /// Starts a run at t = 0 with an empty cache (the paper's convention:
  /// time-0 flushes are free) and `policy` reset on `ctx`, then seeded.
  /// `ctx` supplies the block map and the capacity k; it and `policy`
  /// must outlive the kernel.
  StepKernel(const Instance& ctx, OnlinePolicy& policy, std::uint64_t seed)
      : policy_(&policy),
        k_(ctx.k),
        cache_(ctx.n_pages()),
        meter_(ctx.blocks),
        ops_(ctx.blocks, cache_, meter_, ctx.k) {
    policy.reset(ctx);
    policy.seed(seed);
  }

  // ops_ points into cache_ and meter_; the kernel must never move.
  StepKernel(const StepKernel&) = delete;
  StepKernel& operator=(const StepKernel&) = delete;

  /// Serve the request to page p as the next time step; true on a hit.
  /// Throws std::runtime_error, leaving the run as it was, if t would
  /// reach 2^31 - 1; throws too if the policy fails the feasibility audit.
  /// p must be a page of the context.
  bool serve(PageId p) {
    if (t_ == kLastStep) [[unlikely]] refuse_time_wrap();
    ++t_;
    meter_.begin_step(t_);
    const bool hit = cache_.contains(p);
    if (!hit) ++misses_;
    policy_->on_request(t_, p, ops_);
    if (!cache_.contains(p) || cache_.size() > k_) [[unlikely]]
      fail_audit(p);
    return hit;
  }

  /// Requests, hits, misses and the meter's totals so far.
  [[nodiscard]] CostCounters counters() const noexcept {
    CostCounters c = meter_.totals();
    c.requests = t_;
    c.hits = t_ - misses_;
    c.misses = misses_;
    return c;
  }

  [[nodiscard]] Time time() const noexcept { return t_; }
  [[nodiscard]] int capacity() const noexcept { return k_; }
  [[nodiscard]] const CacheSet& cache() const noexcept { return cache_; }
  [[nodiscard]] const CostMeter& meter() const noexcept { return meter_; }

  /// The last step the kernel serves: t + 1 still fits in Time.
  static constexpr Time kLastStep = std::numeric_limits<Time>::max() - 1;

 private:
  [[noreturn]] void refuse_time_wrap() const;
  [[noreturn]] void fail_audit(PageId p) const;

  OnlinePolicy* policy_;
  int k_;
  Time t_ = 0;
  long long misses_ = 0;
  CacheSet cache_;
  CostMeter meter_;
  CacheOps ops_;
};

}  // namespace bac
