// Replayable simulator: drives a policy over a request stream through the
// step kernel (core/step_kernel.hpp), which meters each step under both
// cost models and audits feasibility, throwing on a broken policy.
//
// The core loop consumes a RequestSource, so it runs identically over a
// materialized Instance (the InstanceSource adapter — the historical API,
// still the signature every test uses) and over streaming traces (.bact,
// text, CSV, synthetic generators) whose length never enters memory.
// Per-step costs are folded online into a fixed-layout mergeable
// log-bucket histogram (obs/histogram.hpp, O(1) memory); an optional
// single-pass LRU miss-ratio curve rides along. With a MetricRegistry
// attached the run's event counters and step-cost histogram are folded
// in at the end of the run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/request_source.hpp"
#include "core/types.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace bac {

struct SimOptions {
  std::uint64_t seed = 1;     ///< forwarded to OnlinePolicy::seed
  bool record_sketch = true;  ///< per-step cost histogram (O(1) memory)
  /// Cache sizes to evaluate the single-pass LRU miss-ratio curve at;
  /// empty disables the curve (it costs O(log n) per request).
  std::vector<int> mrc_ks;
  /// Optional metrics hook, nullptr by default. Counters folded into it
  /// are pure event counts — deterministic for a fixed (source, policy,
  /// seed) at any thread count.
  obs::MetricRegistry* metrics = nullptr;
};

/// The run's counters (CostCounters: requests, hits, misses and the
/// meter's totals) plus what the SimOptions asked to record.
struct RunResult : CostCounters {
  /// Feasibility repairs: always 0, since a failed audit throws instead.
  /// Kept so callers' "no violations" checks read the run's own record.
  int violations = 0;
  int cached_pages = 0;  ///< cache occupancy after the last request
  /// Mergeable log-bucket histogram of per-step total (eviction+fetch)
  /// cost; filled when record_sketch. Bucket counts are deterministic
  /// for a fixed (source, policy, seed).
  obs::Histogram step_cost_hist;
  /// Quantile summaries of step_cost_hist (bucket-midpoint estimates,
  /// NaN when no steps ran) and its exact per-step maximum (0 when no
  /// steps ran); filled when record_sketch.
  double step_cost_p50 = 0;
  double step_cost_p90 = 0;
  double step_cost_p99 = 0;
  double step_cost_max = 0;
  /// (k, LRU miss ratio) per requested mrc_ks entry.
  std::vector<std::pair<int, double>> miss_curve;
};

/// Run `policy` over the stream. The cache starts empty (the paper's
/// convention: time-0 flushes are free, i.e. initial contents are
/// irrelevant). Throws std::invalid_argument if the policy requires the
/// future (offline) and the source is not materialized, and
/// std::runtime_error if the policy fails the step kernel's audit or a
/// streamed source yields a page outside the context.
RunResult simulate(RequestSource& source, OnlinePolicy& policy,
                   const SimOptions& options = {});

/// Run `policy` over `inst` (wraps an InstanceSource).
RunResult simulate(const Instance& inst, OnlinePolicy& policy,
                   const SimOptions& options = {});

/// Mean costs over `trials` seeds (for randomized policies).
struct MonteCarloResult {
  double mean_eviction_cost = 0;
  double mean_fetch_cost = 0;
  double stddev_eviction_cost = 0;
  double stddev_fetch_cost = 0;
  /// Of per-trial total (eviction + fetch) cost — NOT derivable from the
  /// per-component stddevs (those ignore their covariance).
  double mean_total_cost = 0;
  double stddev_total_cost = 0;
  long long total_requests = 0;  ///< requests served across all trials
  int trials = 0;
};

/// Trials are sharded across the global thread pool when the policy is
/// cloneable (OnlinePolicy::clone), falling back to serial replay
/// otherwise. Per-trial seeds depend only on (root_seed, trial index), and
/// the reduction runs in index order, so results are bit-identical to the
/// serial path regardless of thread count.
MonteCarloResult simulate_mc(const Instance& inst, OnlinePolicy& policy,
                             int trials, std::uint64_t root_seed = 1);

/// Fully factory-based variant for streaming sweeps: each trial gets its
/// own source and policy, so trials parallelize without shared state. The
/// factories must be thread-safe (they are called from pool workers).
MonteCarloResult simulate_mc(
    const std::function<std::unique_ptr<RequestSource>()>& make_source,
    const std::function<std::unique_ptr<OnlinePolicy>()>& make_policy,
    int trials, std::uint64_t root_seed = 1);

}  // namespace bac
