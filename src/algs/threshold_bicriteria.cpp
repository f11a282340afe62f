#include "algs/threshold_bicriteria.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.hpp"

namespace bac {

void ThresholdBicriteriaPolicy::reset(const Instance& inst) {
  frac_.emplace(inst.blocks, std::max(1, inst.k / 2));
}

void ThresholdBicriteriaPolicy::on_request(Time /*t*/, PageId p,
                                           CacheOps& cache) {
  const std::vector<double>& x = frac_->step(p);
  for (const PageId q : frac_->moved())
    if (x[static_cast<std::size_t>(q)] > 0.5) cache.evict(q);
  cache.fetch(p);
}

void ThresholdBicriteriaPolicy::export_metrics(
    obs::MetricRegistry& registry) const {
  if (!frac_) return;  // never reset
  const auto inc = [&](const char* name, long long n) {
    registry.counter(name).inc(static_cast<std::uint64_t>(n));
  };
  const FractionalWeightedPaging::Counts& c = frac_->counts();
  inc("policy_growth_bisections_total", c.bisections);
  inc("policy_growth_halvings_total", c.halvings);
  inc("policy_growth_exp_reads_total", c.exp_reads);
  inc("policy_growth_mass_evals_total", c.mass_evals);
}

}  // namespace bac
