#include "algs/rounding.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "obs/metrics.hpp"

namespace bac {

void RandomizedBlockAware::reset(const Instance& inst) {
  blocks_ = &inst.blocks;
  k_ = inst.k;
  frac_.emplace(inst.blocks, inst.k);

  const double kd = static_cast<double>(k_);
  const double delta = inst.blocks.aspect_ratio();
  gamma_ = options_.gamma_override > 0
               ? options_.gamma_override
               : std::log(4.0 * kd * kd * inst.blocks.beta() * delta);
  gamma_ = std::max(gamma_, 1.0);
  emit_threshold_ = options_.apply_structure ? 1.0 / (4.0 * kd * kd) : 0.0;

  pending_.assign(static_cast<std::size_t>(inst.blocks.n_blocks()), 0.0);
  last_emit_.assign(static_cast<std::size_t>(inst.blocks.n_blocks()), 0);
  half_charged_.assign(static_cast<std::size_t>(inst.n_pages()), 0);
  structured_cost_ = 0;
  alterations_ = 0;
  fallback_alterations_ = 0;
}

int RandomizedBlockAware::evict_positive(BlockId b, Time now,
                                         CacheOps& cache) {
  int evicted = 0;
  for (PageId q : blocks_->pages_in(b)) {
    if (!cache.contains(q)) continue;
    if (!x_positive(q, now)) continue;
    cache.evict(q);
    ++evicted;
  }
  return evicted;
}

void RandomizedBlockAware::on_request(Time t, PageId p, CacheOps& cache) {
  // 1. Fractional step.
  const auto& increments = frac_->step(t, p);

  // 2. Structure transform: accumulate raw mass; decide per-block emission.
  //    full_evict: some page crossed x >= 1/2 since its last request.
  emissions_.clear();
  {
    // Collect blocks touched this step (increments are grouped arbitrarily).
    for (const FractionalIncrement& inc : increments)
      pending_[static_cast<std::size_t>(inc.b)] += inc.delta;

    touched_.clear();
    for (const FractionalIncrement& inc : increments)
      touched_.push_back(inc.b);
    std::sort(touched_.begin(), touched_.end());
    touched_.erase(std::unique(touched_.begin(), touched_.end()),
                   touched_.end());

    for (BlockId b : touched_) {
      double& pend = pending_[static_cast<std::size_t>(b)];
      bool full = false;
      if (options_.apply_structure) {
        // Half-crossing check: any page of b with raw x >= 1/2 that has not
        // yet triggered a full eviction since its last request.
        for (PageId q : blocks_->pages_in(b)) {
          if (half_charged_[static_cast<std::size_t>(q)]) continue;
          if (q == p) continue;
          const double xq = frac_->vars().x_value(frac_->coverage(), q);
          if (xq >= 0.5 && xq < 1.0) {
            full = true;
            half_charged_[static_cast<std::size_t>(q)] = 1;
          }
        }
      }
      if (full) {
        emissions_.emplace_back(b, 1.0);
        structured_cost_ += blocks_->cost(b);
        pend = 0;
      } else if (pend >= emit_threshold_ && pend > 0) {
        const double mass = std::min(2.0 * pend, 1.0);
        emissions_.emplace_back(b, mass);
        structured_cost_ += blocks_->cost(b) * mass;
        pend = 0;
      }
    }
  }

  // 3. Rounding. Requests reset x first so the requested page never leaves
  //    (the substrate's step already moved r(p) to t).
  half_charged_[static_cast<std::size_t>(p)] = 0;

  for (const auto& [b, mass] : emissions_) {
    last_emit_[static_cast<std::size_t>(b)] = t;
    if (rng_.bernoulli(std::min(1.0, gamma_ * mass)))
      evict_positive(b, t, cache);
  }

  cache.fetch(p);  // free under eviction costs

  // Alteration loop: restore feasibility by flushing positive-x blocks.
  while (cache.size() > k_) {
    BlockId victim = -1;
    for (PageId q : cache.pages()) {
      if (q != p && x_positive(q, t)) {
        victim = blocks_->block_of(q);
        break;
      }
    }
    if (victim >= 0) {
      evict_positive(victim, t, cache);
      ++alterations_;
      continue;
    }
    // No positive-x page cached (fractional slack got absorbed by the
    // transform's pending masses): force-emit the block with the largest
    // pending mass, or evict an arbitrary page as a last resort.
    BlockId best = -1;
    double best_pend = 0;
    for (PageId q : cache.pages()) {
      if (q == p) continue;
      const BlockId b = blocks_->block_of(q);
      const double pend = pending_[static_cast<std::size_t>(b)];
      if (best < 0 || pend > best_pend) {
        best = b;
        best_pend = pend;
      }
    }
    if (best >= 0) {
      last_emit_[static_cast<std::size_t>(best)] = t;
      pending_[static_cast<std::size_t>(best)] = 0;
      structured_cost_ += blocks_->cost(best);
      const int evicted = evict_positive(best, t, cache);
      ++alterations_;
      ++fallback_alterations_;
      if (evicted == 0) {
        // Truly nothing to evict by x-rules; evict one arbitrary page.
        for (PageId q : cache.pages()) {
          if (q != p) {
            cache.evict(q);
            break;
          }
        }
      }
    } else {
      break;  // only the requested page is cached; cannot overflow
    }
  }
}

void RandomizedBlockAware::export_metrics(
    obs::MetricRegistry& registry) const {
  if (!frac_) return;  // never reset
  const auto inc = [&](const char* name, long long n) {
    registry.counter(name).inc(static_cast<std::uint64_t>(n));
  };
  const FractionalBlockAware::Counts& c = frac_->counts();
  const SeparationCounts sc = frac_->separation_counts();
  inc("policy_separation_calls_total", c.separation_calls);
  inc("policy_separation_scored_total", sc.scored);
  inc("policy_separation_exact_total", sc.exact);
  inc("policy_separation_net_builds_total", sc.net_builds);
  inc("policy_separation_net_kept_total", sc.net_kept);
  inc("policy_separation_net_points_total", sc.net_points);
  inc("policy_saturation_bisections_total", c.bisections);
  inc("policy_saturation_lhs_evals_total", c.lhs_evals);
  inc("policy_alterations_total", alterations_);
  inc("policy_fallback_alterations_total", fallback_alterations_);
}

}  // namespace bac
