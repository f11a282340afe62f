#include "algs/bicriteria.hpp"

#include <algorithm>

#include "core/cache_set.hpp"
#include "core/schedule.hpp"

namespace bac {

namespace {

/// Shared bookkeeping: record per-step fetch/evict decisions and track
/// the cache-size peak; finish() scores the recorded schedule with
/// replay_schedule, the meter every offline schedule is charged by.
class Replayer {
 public:
  explicit Replayer(const Instance& inst)
      : inst_(&inst), cache_(inst.n_pages()) {
    out_.schedule.steps.resize(static_cast<std::size_t>(inst.horizon()));
  }

  void begin(Time t) { t_ = t; }
  void evict(PageId p) {
    if (cache_.erase(p))
      out_.schedule.steps[static_cast<std::size_t>(t_ - 1)]
          .evictions.push_back(p);
  }
  void fetch(PageId p) {
    if (cache_.insert(p))
      out_.schedule.steps[static_cast<std::size_t>(t_ - 1)]
          .fetches.push_back(p);
  }
  void end_step() {
    out_.max_cache_used = std::max(out_.max_cache_used, cache_.size());
  }
  [[nodiscard]] bool contains(PageId p) const { return cache_.contains(p); }

  BicriteriaOutcome finish() {
    const ReplayResult r = replay_schedule(*inst_, out_.schedule);
    out_.fetch_cost = r.fetch_cost;
    out_.eviction_cost = r.eviction_cost;
    return std::move(out_);
  }

 private:
  const Instance* inst_;
  CacheSet cache_;
  Time t_ = 0;
  BicriteriaOutcome out_;
};

}  // namespace

BicriteriaOutcome round_fetch_threshold(
    const Instance& inst, const std::vector<std::vector<double>>& x) {
  Replayer rp(inst);
  const Time T = inst.horizon();
  for (Time t = 1; t <= T; ++t) {
    rp.begin(t);
    const auto& xt = x[static_cast<std::size_t>(t)];
    // Evict pages whose fractional missing mass exceeds 1/2 (free).
    for (PageId p = 0; p < inst.n_pages(); ++p)
      if (xt[static_cast<std::size_t>(p)] > 0.5) rp.evict(p);
    // On a miss, fetch all eligible pages of the requested block.
    const PageId req = inst.request_at(t);
    if (!rp.contains(req)) {
      const BlockId b = inst.blocks.block_of(req);
      for (PageId q : inst.blocks.pages_in(b))
        if (xt[static_cast<std::size_t>(q)] <= 0.5) rp.fetch(q);
    }
    rp.end_step();
  }
  return rp.finish();
}

BicriteriaOutcome round_evict_threshold(
    const Instance& inst, const std::vector<std::vector<double>>& x) {
  Replayer rp(inst);
  const Time T = inst.horizon();
  for (Time t = 1; t <= T; ++t) {
    rp.begin(t);
    const auto& xt = x[static_cast<std::size_t>(t)];
    const auto& xprev = x[static_cast<std::size_t>(t - 1)];
    // A cached page crossing above 1/2 flushes its whole block (batched).
    for (PageId p = 0; p < inst.n_pages(); ++p) {
      if (xt[static_cast<std::size_t>(p)] > 0.5 &&
          xprev[static_cast<std::size_t>(p)] <= 0.5 && rp.contains(p)) {
        const BlockId b = inst.blocks.block_of(p);
        for (PageId q : inst.blocks.pages_in(b))
          if (xt[static_cast<std::size_t>(q)] > 0.5) rp.evict(q);
      }
    }
    const PageId req = inst.request_at(t);
    if (!rp.contains(req)) rp.fetch(req);  // free under eviction costs
    rp.end_step();
  }
  return rp.finish();
}

Cost fractional_block_fetch_cost(const Instance& inst,
                                 const std::vector<std::vector<double>>& x) {
  Cost total = 0;
  for (Time t = 1; t <= inst.horizon(); ++t) {
    for (BlockId b = 0; b < inst.blocks.n_blocks(); ++b) {
      double max_dec = 0;
      for (PageId p : inst.blocks.pages_in(b))
        max_dec = std::max(
            max_dec, x[static_cast<std::size_t>(t - 1)][static_cast<std::size_t>(p)] -
                         x[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)]);
      if (max_dec > 0) total += inst.blocks.cost(b) * max_dec;
    }
  }
  return total;
}

Cost fractional_block_evict_cost(const Instance& inst,
                                 const std::vector<std::vector<double>>& x) {
  Cost total = 0;
  for (Time t = 1; t <= inst.horizon(); ++t) {
    for (BlockId b = 0; b < inst.blocks.n_blocks(); ++b) {
      double max_inc = 0;
      for (PageId p : inst.blocks.pages_in(b))
        max_inc = std::max(
            max_inc, x[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)] -
                         x[static_cast<std::size_t>(t - 1)][static_cast<std::size_t>(p)]);
      if (max_inc > 0) total += inst.blocks.cost(b) * max_inc;
    }
  }
  return total;
}

Time check_fractional_feasible(const Instance& inst,
                               const std::vector<std::vector<double>>& x,
                               double tol) {
  const double need = static_cast<double>(inst.n_pages() - inst.k);
  for (Time t = 1; t <= inst.horizon(); ++t) {
    const auto& xt = x[static_cast<std::size_t>(t)];
    if (xt[static_cast<std::size_t>(inst.request_at(t))] > tol) return t;
    double sum = 0;
    for (double v : xt) sum += v;
    if (sum < need - tol) return t;
  }
  return 0;
}

}  // namespace bac
