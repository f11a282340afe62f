#include "core/schedule.hpp"

#include <algorithm>
#include <stdexcept>

namespace bac {

ReplayResult replay_schedule(const Instance& inst, const Schedule& sched) {
  inst.validate();
  ReplayResult out;
  if (sched.horizon() != inst.horizon()) {
    out.feasible = false;
    out.infeasibility = "schedule horizon mismatch";
    return out;
  }

  CacheSet cache(inst.n_pages());
  CostMeter meter(inst.blocks);
  const Time T = inst.horizon();
  long long misses = 0;
  for (Time t = 1; t <= T; ++t) {
    meter.begin_step(t);
    const PageId req = inst.request_at(t);
    if (!cache.contains(req)) ++misses;
    const auto& step = sched.steps[static_cast<std::size_t>(t - 1)];
    for (PageId p : step.evictions)
      if (cache.erase(p)) meter.on_evict(p);
    for (PageId p : step.fetches)
      if (cache.insert(p)) meter.on_fetch(p);

    if (!cache.contains(req)) {
      out.feasible = false;
      if (out.infeasibility.empty())
        out.infeasibility =
            "requested page absent at t=" + std::to_string(t);
    }
    if (cache.size() > inst.k) {
      out.feasible = false;
      if (out.infeasibility.empty())
        out.infeasibility = "capacity exceeded at t=" + std::to_string(t);
    }
  }
  out.counters() = meter.totals();
  out.requests = T;
  out.hits = T - misses;
  out.misses = misses;
  out.final_cache = cache.pages();
  std::sort(out.final_cache.begin(), out.final_cache.end());
  return out;
}

void SchedulePolicy::reset(const Instance& inst) {
  if (sched_.horizon() != inst.horizon())
    throw std::invalid_argument("SchedulePolicy: horizon mismatch");
}

void SchedulePolicy::on_request(Time t, PageId /*p*/, CacheOps& cache) {
  const auto& step = sched_.steps[static_cast<std::size_t>(t - 1)];
  for (PageId q : step.evictions) cache.evict(q);
  for (PageId q : step.fetches) cache.fetch(q);
}

}  // namespace bac
