// Explicit offline schedules: per-step fetch/evict page lists.
//
// Exact OPT solvers and LP roundings produce a Schedule; `replay_schedule`
// replays it through the same CostMeter accounting as a live run and
// checks its feasibility, so offline solutions are scored by exactly the
// same meter as online policies.
#pragma once

#include <string>
#include <vector>

#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/types.hpp"

namespace bac {

struct Schedule {
  /// actions[i] applies at time t = i+1, before serving requests[i]:
  /// evictions first, then fetches (the requested page must end up cached).
  struct Step {
    std::vector<PageId> evictions;
    std::vector<PageId> fetches;
  };
  std::vector<Step> steps;

  [[nodiscard]] Time horizon() const noexcept {
    return static_cast<Time>(steps.size());
  }
};

/// Full accounting of a schedule replay: the counters a live simulate()
/// run reports (a request is a hit when its page is cached before the
/// step's actions, as it is before a live policy's on_request), its
/// feasibility, and the final cache contents. A schedule captured by
/// SimOptions::record_schedule replayed through this must reproduce the
/// live run's final state exactly, and its counters exactly whenever the
/// capture netted out no fetch+evict transients
/// (RunResult::capture_cancellations == 0) — the verify subsystem's
/// schedule-replay oracle checks both.
struct ReplayResult : CostCounters {
  bool feasible = true;
  std::string infeasibility;       ///< first violation, for diagnostics
  std::vector<PageId> final_cache; ///< cached pages after the last step, sorted
};

/// Replay `sched` on `inst` (evictions before fetches within each step).
/// A horizon mismatch is reported as infeasible with zero counters.
ReplayResult replay_schedule(const Instance& inst, const Schedule& sched);

}  // namespace bac
