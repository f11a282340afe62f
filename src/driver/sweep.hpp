// Policy x workload x k sweep grids over streaming request sources.
//
// This is the engine behind tools/bacsim: the grid is expanded into
// cells, cells are sharded across the global thread pool, and every
// completed cell is handed to a sink as one structured record (the
// bench_main record schema: workload, n/m/k/beta, cost, wall time, plus
// numeric extras), so drivers can stream results out as they arrive
// instead of holding the sweep in memory.
//
// Workload specs:
//   zipf[alpha]   e.g. "zipf0.9" (default alpha 0.9)   - synthetic stream
//   uniform | scan | blocklocal | phased               - synthetic streams
//   path.bact                                          - binary trace
//   path.csv                                           - key trace (mapping
//                                                        built once, shared)
//   any other path                                     - v1 text trace
// Synthetic workloads use --n/--beta/--T; file workloads carry their own
// block structure and the sweep's k overrides the file's. All sources
// stream: peak memory is independent of trace length.
//
// Randomized policies (policy->randomized()) run `trials` Monte-Carlo
// replays through simulate_mc — themselves parallel over the same pool —
// and report mean costs with stddev; deterministic policies run once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/request_source.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bac::driver {

struct SweepConfig {
  std::vector<std::string> policies;   ///< registry names (algs/zoo.hpp)
  std::vector<std::string> workloads;  ///< specs as above
  std::vector<int> ks;
  int n = 4096;            ///< pages, synthetic workloads
  int beta = 8;            ///< block size, synthetic workloads
  long long T = 200000;    ///< requests, synthetic workloads
  std::uint64_t seed = 1;
  int trials = 1;          ///< Monte-Carlo trials for randomized policies
  bool mrc = false;        ///< attach the LRU miss-ratio curve at the ks
  int csv_block_pages = 8; ///< block inference granularity for .csv
  /// Optional observability hooks (nullptr = disabled). The sweep emits a
  /// `sweep` span plus cell_begin/cell_end events as cells complete (so a
  /// 50M-request grid is watchable mid-flight), forwards `metrics` into
  /// every cell's simulate() so sim_* event counters aggregate across the
  /// grid, and counts cells under `sweep_cells_total`. Counter totals are
  /// sums of deterministic per-cell counts, hence independent of the pool
  /// size; only wall-clock fields vary.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceWriter* trace = nullptr;
};

struct SweepRecord {
  std::string policy;          ///< registry name
  std::string policy_display;  ///< OnlinePolicy::name()
  std::string workload;        ///< spec string
  int n = 0;
  int m = 0;
  int k = 0;
  int beta = 0;
  long long requests = 0;      ///< requests processed (x trials for MC)
  long long misses = 0;        ///< single-run cells only
  int trials = 1;
  double cost = 0;             ///< eviction + fetch (mean over trials)
  double eviction_cost = 0;
  double fetch_cost = 0;
  double stddev_cost = 0;      ///< 0 for deterministic cells
  double wall_ms = 0;
  double rps = 0;              ///< requests per second for this cell
  double step_cost_p50 = 0;    ///< per-step total cost percentiles
  double step_cost_p90 = 0;
  double step_cost_p99 = 0;
  double step_cost_max = 0;
  std::vector<std::pair<int, double>> miss_curve;  ///< when config.mrc
};

struct SweepTotals {
  long long cells = 0;
  long long requests = 0;  ///< total requests processed across the sweep
  double wall_ms = 0;      ///< sweep wall clock
  double rps = 0;          ///< aggregate throughput
};

/// Called once per completed cell, from pool workers (serialize inside if
/// needed; bacsim's JSON writer takes a mutex).
using RecordSink = std::function<void(const SweepRecord&)>;

/// Build a streaming source for one (workload, k) cell. CSV mappings are
/// built on first use per path and shared (read-only) across cells.
std::unique_ptr<RequestSource> make_workload_source(
    const std::string& spec, const SweepConfig& config, int k);

/// The CSV mapping cache behind make_workload_source holds at most this
/// many (path, options) mappings, LRU-evicted — bounded so a long-lived
/// process sweeping many trace files cannot grow it forever.
inline constexpr int kCsvMappingCacheCapacity = 8;

/// Current number of cached CSV mappings. Stays for the tests: it is the
/// seam through which they check the cache's bound.
int csv_mapping_cache_size();

/// Drop every cached CSV mapping (mappings still referenced by running
/// cells stay alive through their shared_ptr).
void csv_mapping_cache_clear();

/// Expand and run the grid; throws on the first cell error (unknown
/// policy/workload, malformed trace, infeasible k < beta, ...). Unknown
/// and offline (requires_future()) policies throw before any cell runs.
SweepTotals run_sweep(const SweepConfig& config, const RecordSink& sink);

}  // namespace bac::driver
