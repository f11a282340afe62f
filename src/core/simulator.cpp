#include "core/simulator.hpp"

#include <stdexcept>
#include <string>

#include "core/mrc.hpp"
#include "core/step_kernel.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace bac {

namespace {

/// Requests consumed from the source per inner-loop iteration: large
/// enough to amortize the virtual next_batch() call and keep the decode
/// and serve loops tight, small enough to stay in L1 (2 KiB).
constexpr int kSimBatch = 512;

}  // namespace

RunResult simulate(RequestSource& source, OnlinePolicy& policy,
                   const SimOptions& options) {
  const Instance& ctx = source.context();
  ctx.validate();
  if (policy.requires_future() && !source.materialized())
    throw std::invalid_argument(
        "simulate: offline policy " + policy.name() +
        " needs a materialized instance, not a streaming source");

  StepKernel kernel(ctx, policy, options.seed);
  const CostMeter& meter = kernel.meter();

  RunResult result;
  obs::Histogram step_hist;
  std::unique_ptr<MissRatioCurve> mrc;
  if (!options.mrc_ks.empty())
    mrc = std::make_unique<MissRatioCurve>(ctx.n_pages());

  // Materialized sources were validated above; raw streams can still yield
  // garbage, so bound-check their pages as they arrive.
  const bool check_pages = !source.materialized();
  const PageId n_pages = ctx.n_pages();
  const auto check_page = [&](PageId p) {
    if (check_pages && (p < 0 || p >= n_pages))
      throw std::runtime_error(
          "simulate: source yielded page " + std::to_string(p) +
          " outside [0, " + std::to_string(n_pages) + ") at t=" +
          std::to_string(kernel.time() + 1));
  };

  // The stream is consumed in batches; both lanes serve each request
  // through the same kernel step. The costs-only lane (every Monte-Carlo
  // trial and throughput bench) pays for none of the recording branches.
  const bool fast_lane = !options.record_sketch && mrc == nullptr;
  Cost prev_evict = 0, prev_fetch = 0;
  PageId batch[kSimBatch];
  for (;;) {
    const int m = source.next_batch(batch, kSimBatch);
    if (m <= 0) break;
    if (fast_lane) {
      for (int i = 0; i < m; ++i) {
        check_page(batch[i]);
        kernel.serve(batch[i]);
      }
    } else {
      for (int i = 0; i < m; ++i) {
        const PageId p = batch[i];
        check_page(p);
        if (mrc) mrc->add(p);
        kernel.serve(p);

        if (options.record_sketch) {
          const Cost step_cost = (meter.eviction_cost() - prev_evict) +
                                 (meter.fetch_cost() - prev_fetch);
          step_hist.add(static_cast<double>(step_cost));
        }
        prev_evict = meter.eviction_cost();
        prev_fetch = meter.fetch_cost();
      }
    }
  }

  result.counters() = kernel.counters();
  result.cached_pages = kernel.cache().size();
  if (mrc)
    for (const int k : options.mrc_ks)
      result.miss_curve.emplace_back(k, mrc->miss_ratio(k));

  if (options.metrics != nullptr) {
    // Pure event counts — deterministic for a fixed (source, policy,
    // seed) at any thread count, so CI can diff them across runs.
    obs::MetricRegistry& m = *options.metrics;
    m.counter("sim_requests_total")
        .inc(static_cast<std::uint64_t>(result.requests));
    m.counter("sim_misses_total")
        .inc(static_cast<std::uint64_t>(result.misses));
    m.counter("sim_hits_total").inc(static_cast<std::uint64_t>(result.hits));
    m.counter("sim_eviction_cost_total")
        .inc(static_cast<std::uint64_t>(result.eviction_cost));
    m.counter("sim_fetch_cost_total")
        .inc(static_cast<std::uint64_t>(result.fetch_cost));
    m.counter("sim_flush_events_total")
        .inc(static_cast<std::uint64_t>(result.evict_block_events));
    m.counter("sim_fetch_events_total")
        .inc(static_cast<std::uint64_t>(result.fetch_block_events));
    m.counter("sim_evicted_pages_total")
        .inc(static_cast<std::uint64_t>(result.evicted_pages));
    m.counter("sim_fetched_pages_total")
        .inc(static_cast<std::uint64_t>(result.fetched_pages));
    if (options.record_sketch) m.merge_histogram("sim_step_cost", step_hist);
    // Policy-side structural counters (ghost hits, hand sweeps, ARC p
    // adjustments, block flushes) — the "why did this policy win" layer
    // on top of the cost counters above. No-op for policies without them.
    policy.export_metrics(m);
  }
  if (options.record_sketch) {
    result.step_cost_p50 = step_hist.quantile(0.50);
    result.step_cost_p90 = step_hist.quantile(0.90);
    result.step_cost_p99 = step_hist.quantile(0.99);
    if (!step_hist.empty()) result.step_cost_max = step_hist.max();
    result.step_cost_hist = std::move(step_hist);
  }
  return result;
}

RunResult simulate(const Instance& inst, OnlinePolicy& policy,
                   const SimOptions& options) {
  InstanceSource source(inst);
  return simulate(source, policy, options);
}

namespace {

std::uint64_t trial_seed(std::uint64_t root_seed, int trial) {
  return root_seed + static_cast<std::uint64_t>(trial) * 0x9e3779b97f4a7c15ULL;
}

MonteCarloResult reduce_trials(const std::vector<RunResult>& runs) {
  // Index-order reduction: identical output for any execution order.
  StreamingStats evict, fetch, total;
  long long requests = 0;
  for (const RunResult& r : runs) {
    evict.add(r.eviction_cost);
    fetch.add(r.fetch_cost);
    total.add(r.eviction_cost + r.fetch_cost);
    requests += r.requests;
  }
  MonteCarloResult out;
  out.mean_eviction_cost = evict.mean();
  out.mean_fetch_cost = fetch.mean();
  out.stddev_eviction_cost = evict.stddev();
  out.stddev_fetch_cost = fetch.stddev();
  out.mean_total_cost = total.mean();
  out.stddev_total_cost = total.stddev();
  out.total_requests = requests;
  out.trials = static_cast<int>(runs.size());
  return out;
}

SimOptions trial_options(std::uint64_t root_seed, int trial) {
  SimOptions options;
  options.seed = trial_seed(root_seed, trial);
  options.record_sketch = false;  // trials only aggregate totals
  return options;
}

}  // namespace

MonteCarloResult simulate_mc(const Instance& inst, OnlinePolicy& policy,
                             int trials, std::uint64_t root_seed) {
  if (trials <= 0) return {};
  std::vector<RunResult> runs(static_cast<std::size_t>(trials));
  ThreadPool& pool = global_pool();
  // Clone up front (serially — clones copy the prototype, which must not
  // be mutated concurrently). The last trial runs on the prototype itself
  // so callers that read policy state afterwards see a completed run,
  // matching the serial semantics ("reflects the last trial").
  std::vector<std::unique_ptr<OnlinePolicy>> clones;
  if (trials > 1 && pool.size() > 1) {
    clones.reserve(static_cast<std::size_t>(trials) - 1);
    for (int i = 0; i + 1 < trials; ++i) {
      auto c = policy.clone();
      if (!c) {
        clones.clear();
        break;
      }
      clones.push_back(std::move(c));
    }
  }
  if (!clones.empty()) {
    pool.parallel_for_indexed(
        static_cast<std::size_t>(trials), [&](std::size_t i) {
          OnlinePolicy& trial_policy =
              i + 1 == static_cast<std::size_t>(trials) ? policy : *clones[i];
          runs[i] = simulate(inst, trial_policy,
                             trial_options(root_seed, static_cast<int>(i)));
        });
  } else {
    for (int i = 0; i < trials; ++i)
      runs[static_cast<std::size_t>(i)] =
          simulate(inst, policy, trial_options(root_seed, i));
  }
  return reduce_trials(runs);
}

MonteCarloResult simulate_mc(
    const std::function<std::unique_ptr<RequestSource>()>& make_source,
    const std::function<std::unique_ptr<OnlinePolicy>()>& make_policy,
    int trials, std::uint64_t root_seed) {
  if (trials <= 0) return {};
  std::vector<RunResult> runs(static_cast<std::size_t>(trials));
  ThreadPool& pool = global_pool();
  if (trials > 1 && pool.size() > 1) {
    pool.parallel_for_indexed(
        static_cast<std::size_t>(trials), [&](std::size_t i) {
          const auto source = make_source();
          const auto policy = make_policy();
          runs[i] = simulate(*source, *policy,
                             trial_options(root_seed, static_cast<int>(i)));
        });
  } else {
    const auto source = make_source();
    const auto policy = make_policy();
    for (int i = 0; i < trials; ++i) {
      source->rewind();
      runs[static_cast<std::size_t>(i)] =
          simulate(*source, *policy, trial_options(root_seed, i));
    }
  }
  return reduce_trials(runs);
}

}  // namespace bac
