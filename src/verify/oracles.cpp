#include "verify/oracles.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "algs/det_online.hpp"
#include "algs/fractional.hpp"
#include "algs/lower_bounds.hpp"
#include "algs/opt.hpp"
#include "algs/rounding.hpp"
#include "algs/threshold_bicriteria.hpp"
#include "algs/zoo.hpp"
#include "core/schedule.hpp"
#include "core/simulator.hpp"
#include "obs/metrics.hpp"
#include "server/concurrent_cache.hpp"
#include "server/dispatch.hpp"
#include "verify/reference_policies.hpp"

namespace bac::verify {

namespace {

/// Relative-absolute slack for comparisons that are equalities or <= in
/// real arithmetic but accumulate FP error along different association
/// orders.
bool leq(double a, double b) {
  return a <= b + 1e-9 * (1.0 + std::abs(a) + std::abs(b));
}

std::string fmt(double x) {
  std::ostringstream os;
  os.precision(17);
  os << x;
  return os.str();
}

/// "a vs b", every counter of each record (CostCounters' operator<<).
std::string versus(const CostCounters& a, const CostCounters& b) {
  std::ostringstream os;
  os << a << " vs " << b;
  return os.str();
}

std::vector<std::unique_ptr<OnlinePolicy>> policy_set(
    const OracleOptions& options) {
  return options.policies ? options.policies() : make_policy_zoo();
}

void report(std::vector<Violation>& out, const std::string& family,
            std::string detail) {
  out.push_back({family, std::move(detail)});
}

/// simulate() with every policy exception converted into a violation.
/// Returns false (and reports) when the run failed.
bool run_or_report(const Instance& inst, OnlinePolicy& policy,
                   const SimOptions& sim_options, const std::string& family,
                   std::vector<Violation>& out, RunResult& result) {
  try {
    result = simulate(inst, policy, sim_options);
    return true;
  } catch (const std::exception& e) {
    report(out, family, "policy " + policy.name() + " failed: " + e.what());
    return false;
  }
}

// --- cost_model -------------------------------------------------------------

std::vector<Violation> check_cost_model(const GeneratedInstance& gi,
                                        const OracleOptions& options) {
  std::vector<Violation> out;
  const Instance& inst = gi.inst;
  const double beta = inst.blocks.beta();
  for (const auto& policy : policy_set(options)) {
    SimOptions sim;
    sim.seed = options.seed;
    RunResult r;
    if (!run_or_report(inst, *policy, sim, "cost_model", out, r)) continue;
    const std::string who = policy->name() + ": ";
    if (r.violations != 0)
      report(out, "cost_model", who + "feasibility repairs > 0");
    if (!leq(r.eviction_cost, r.classic_eviction_cost))
      report(out, "cost_model",
             who + "batched eviction " + fmt(r.eviction_cost) +
                 " > classic " + fmt(r.classic_eviction_cost));
    if (!leq(r.fetch_cost, r.classic_fetch_cost))
      report(out, "cost_model",
             who + "batched fetch " + fmt(r.fetch_cost) + " > classic " +
                 fmt(r.classic_fetch_cost));
    if (!leq(r.classic_eviction_cost, beta * r.eviction_cost))
      report(out, "cost_model",
             who + "classic eviction " + fmt(r.classic_eviction_cost) +
                 " > beta x batched " + fmt(beta * r.eviction_cost));
    if (!leq(r.classic_fetch_cost, beta * r.fetch_cost))
      report(out, "cost_model",
             who + "classic fetch " + fmt(r.classic_fetch_cost) +
                 " > beta x batched " + fmt(beta * r.fetch_cost));
    if (r.fetched_pages - r.evicted_pages != r.cached_pages)
      report(out, "cost_model",
             who + "fetched " + std::to_string(r.fetched_pages) +
                 " - evicted " + std::to_string(r.evicted_pages) +
                 " != cached " + std::to_string(r.cached_pages));
    if (r.misses > r.fetched_pages)
      report(out, "cost_model",
             who + "misses " + std::to_string(r.misses) +
                 " > fetched pages " + std::to_string(r.fetched_pages));
    if (r.requests != inst.horizon())
      report(out, "cost_model",
             who + "served " + std::to_string(r.requests) + " != horizon " +
                 std::to_string(inst.horizon()));
    if (r.evict_block_events > r.evicted_pages ||
        r.fetch_block_events > r.fetched_pages)
      report(out, "cost_model", who + "block events exceed page moves");
    if (!leq(r.eviction_cost,
             static_cast<double>(r.evict_block_events) *
                 inst.blocks.max_cost()) ||
        !leq(static_cast<double>(r.evict_block_events) *
                 inst.blocks.min_cost(),
             r.eviction_cost))
      report(out, "cost_model",
             who + "eviction cost outside [events x c_min, events x c_max]");
    if (!leq(r.fetch_cost,
             static_cast<double>(r.fetch_block_events) *
                 inst.blocks.max_cost()) ||
        !leq(static_cast<double>(r.fetch_block_events) *
                 inst.blocks.min_cost(),
             r.fetch_cost))
      report(out, "cost_model",
             who + "fetch cost outside [events x c_min, events x c_max]");
    if (r.cached_pages > inst.k)
      report(out, "cost_model", who + "final occupancy exceeds k");
    // rand_online: every alteration evicts a block with positive x (the
    // fallback is 0 in a healthy run).
    if (const auto* rand =
            dynamic_cast<const RandomizedBlockAware*>(policy.get());
        rand != nullptr && rand->fallback_alterations() != 0)
      report(out, "cost_model",
             who + std::to_string(rand->fallback_alterations()) +
                 " fallback alterations");
    // threshold_fetch and threshold_evict (Theorem 4.1): the rounding
    // pays at most twice the fractional block-batched fetch cost of its
    // half-size cache h = max(1, floor(k/2)), on every instance.
    if (const auto* bicrit =
            dynamic_cast<const ThresholdBicriteriaPolicy*>(policy.get());
        bicrit != nullptr &&
        !leq(r.fetch_cost, 2.0 * bicrit->fractional_block_fetch()))
      report(out, "cost_model",
             who + "batched fetch " + fmt(r.fetch_cost) +
                 " > 2 x fractional block fetch " +
                 fmt(2.0 * bicrit->fractional_block_fetch()));
  }
  return out;
}

// --- cost_sandwich ----------------------------------------------------------

std::vector<Violation> check_cost_sandwich(const GeneratedInstance& gi,
                                           const OracleOptions& options) {
  std::vector<Violation> out;
  const Instance& inst = gi.inst;
  if (inst.n_pages() > options.sandwich_max_pages ||
      inst.horizon() > options.sandwich_max_T || inst.horizon() == 0)
    return out;

  OptResult opt_evict, opt_fetch;
  try {
    opt_evict = exact_opt_eviction(inst);
    opt_fetch = exact_opt_fetching(inst);
  } catch (const std::exception& e) {
    report(out, "cost_sandwich", std::string("exact OPT failed: ") + e.what());
    return out;
  }
  if (!opt_evict.exact || !opt_fetch.exact) return out;  // state cap hit

  // Lower-bound stack: LP (when sized for the dense simplex) <= OPT.
  try {
    const EvictionLowerBound lb = eviction_lower_bound(inst);
    if (lb.source != EvictionLowerBound::Source::None &&
        !leq(lb.value, opt_evict.cost))
      report(out, "cost_sandwich",
             "lower bound " + fmt(lb.value) + " > OPT_evict " +
                 fmt(opt_evict.cost));
  } catch (const std::exception&) {
    // Simplex non-convergence is a capacity issue, not a violation.
  }

  // Every feasible policy run upper-bounds OPT in both models.
  for (const auto& policy : policy_set(options)) {
    SimOptions sim;
    sim.seed = options.seed;
    RunResult r;
    if (!run_or_report(inst, *policy, sim, "cost_sandwich", out, r)) continue;
    const std::string who = policy->name() + ": ";
    if (!leq(opt_evict.cost, r.eviction_cost))
      report(out, "cost_sandwich",
             who + "eviction cost " + fmt(r.eviction_cost) +
                 " beat OPT_evict " + fmt(opt_evict.cost));
    if (!leq(opt_fetch.cost, r.fetch_cost))
      report(out, "cost_sandwich",
             who + "fetch cost " + fmt(r.fetch_cost) + " beat OPT_fetch " +
                 fmt(opt_fetch.cost));
  }

  // Algorithm 1: dual certified below OPT, primal within k x dual
  // (Theorem 3.3), run within k x OPT.
  {
    DetOnlineBlockAware det;
    RunResult r;
    SimOptions sim;
    sim.seed = options.seed;
    if (run_or_report(inst, det, sim, "cost_sandwich", out, r)) {
      const double k = inst.k;
      if (!leq(det.dual_objective(), opt_evict.cost))
        report(out, "cost_sandwich",
               "det-online dual " + fmt(det.dual_objective()) +
                   " > OPT_evict " + fmt(opt_evict.cost));
      if (det.dual_objective() > 0) {
        if (!leq(det.primal_cost(), k * det.dual_objective()))
          report(out, "cost_sandwich",
                 "det-online primal " + fmt(det.primal_cost()) +
                     " > k x dual " + fmt(k * det.dual_objective()));
      } else if (det.primal_cost() != 0.0) {
        report(out, "cost_sandwich",
               "det-online paid " + fmt(det.primal_cost()) +
                   " with zero dual");
      }
      if (!leq(r.eviction_cost, k * opt_evict.cost))
        report(out, "cost_sandwich",
               "det-online eviction cost " + fmt(r.eviction_cost) +
                   " > k x OPT " + fmt(k * opt_evict.cost) +
                   " (Theorem 3.3)");
      if (det.max_load_ratio() > 1.0 + 1e-9)
        report(out, "cost_sandwich",
               "det-online dual load ratio " + fmt(det.max_load_ratio()) +
                   " > 1 (dual infeasible)");
    }
  }

  // Algorithm 2: fractional cost above its own (feasible) dual, dual below
  // OPT.
  try {
    FractionalBlockAware frac(inst.blocks, inst.k);
    for (Time t = 1; t <= inst.horizon(); ++t)
      (void)frac.step(t, inst.request_at(t));
    if (!leq(frac.dual_objective(), frac.fractional_cost()))
      report(out, "cost_sandwich",
             "fractional cost " + fmt(frac.fractional_cost()) +
                 " below its dual " + fmt(frac.dual_objective()));
    if (!leq(frac.dual_objective(), opt_evict.cost))
      report(out, "cost_sandwich",
             "fractional dual " + fmt(frac.dual_objective()) +
                 " > OPT_evict " + fmt(opt_evict.cost));
  } catch (const std::exception& e) {
    report(out, "cost_sandwich",
           std::string("fractional algorithm failed: ") + e.what());
  }
  return out;
}

// --- streaming --------------------------------------------------------------

std::vector<Violation> check_streaming(const GeneratedInstance& gi,
                                       const OracleOptions& options) {
  std::vector<Violation> out;
  const Instance& inst = gi.inst;
  for (const auto& policy : policy_set(options)) {
    if (policy->requires_future()) continue;  // streams carry no future
    SimOptions sim;
    sim.seed = options.seed;
    RunResult mat;
    if (!run_or_report(inst, *policy, sim, "streaming", out, mat)) continue;
    RunResult str;
    try {
      const auto source = gi.streaming_twin();
      str = simulate(*source, *policy, sim);
    } catch (const std::exception& e) {
      report(out, "streaming",
             "policy " + policy->name() + " failed on stream: " + e.what());
      continue;
    }
    if (str.counters() != mat.counters() ||
        str.cached_pages != mat.cached_pages)
      report(out, "streaming",
             policy->name() + ": stream diverges from materialized replay: " +
                 versus(str, mat) + ", cached " +
                 std::to_string(str.cached_pages) + " vs " +
                 std::to_string(mat.cached_pages));
  }
  return out;
}

// --- schedule_replay --------------------------------------------------------

std::vector<Violation> check_schedule_replay(const GeneratedInstance& gi,
                                             const OracleOptions& options) {
  std::vector<Violation> out;
  const Instance& inst = gi.inst;
  for (const auto& policy : policy_set(options)) {
    SimOptions sim;
    sim.seed = options.seed;
    sim.record_schedule = true;
    RunResult live;
    if (!run_or_report(inst, *policy, sim, "schedule_replay", out, live))
      continue;
    const ReplayResult replay = replay_schedule(inst, live.schedule);
    const std::string who = policy->name() + ": ";
    if (!replay.feasible) {
      report(out, "schedule_replay",
             who + "captured schedule replays infeasible: " +
                 replay.infeasibility);
      continue;
    }
    if (replay.final_cache != live.final_cache)
      report(out, "schedule_replay",
             who + "replay final cache state diverges from live run");
    if (live.capture_cancellations == 0) {
      if (replay.counters() != live.counters())
        report(out, "schedule_replay",
               who + "replay accounting diverges from live run: " +
                   versus(replay, live));
    } else {
      // Transients were netted out of the capture: the replay may only be
      // cheaper than the live run, never dearer.
      if (!leq(replay.eviction_cost, live.eviction_cost) ||
          !leq(replay.fetch_cost, live.fetch_cost))
        report(out, "schedule_replay",
               who + "netted replay costs more than the live run");
    }
  }
  return out;
}

// --- policy_equivalence -----------------------------------------------------

/// ThresholdSeparation at its default tolerance, checking every Violation
/// it returns against the constraint's definition: lhs is
/// constraint_lhs(S', phi) bit for bit, rhs is (n - k) - f(S'), and
/// lhs < rhs - tolerance. Reports the first failure.
class CheckedSeparation final : public SeparationOracle {
 public:
  explicit CheckedSeparation(std::vector<Violation>& out) : out_(&out) {}
  std::optional<bac::Violation> find_violated(const FlushSet& S,
                                              const FlushVars& phi) override {
    auto v = inner_.find_violated(S, phi);
    if (!v || failed_) return v;
    const double lhs = constraint_lhs(v->sprime, phi);
    const double rhs =
        static_cast<double>(v->sprime.coverage().cap() - v->sprime.f());
    if (std::bit_cast<std::uint64_t>(v->lhs) !=
            std::bit_cast<std::uint64_t>(lhs) ||
        v->rhs != rhs || !(v->lhs < v->rhs - kTolerance)) {
      report(*out_, "policy_equivalence",
             "threshold separation at t=" +
                 std::to_string(S.coverage().now()) + " returned lhs " +
                 fmt(v->lhs) + ", rhs " + fmt(v->rhs) +
                 "; the constraint reads lhs " + fmt(lhs) + ", rhs " +
                 fmt(rhs));
      failed_ = true;
    }
    return v;
  }

 private:
  static constexpr double kTolerance = 1e-9;  // ThresholdSeparation's default
  std::vector<Violation>* out_;
  ThresholdSeparation inner_{kTolerance};
  bool failed_ = false;
};

/// Algorithm 2 under its default oracle (checked as above) against its
/// frozen twin ReferenceFractionalBlockAware, which bisects without a
/// bracket under the stateless ReferenceThresholdSeparation:
/// bit-identical increments at every step, and the same dual objective
/// and fractional cost at the end.
void diff_fractional_twin(const Instance& inst, std::vector<Violation>& out) {
  try {
    FractionalBlockAware frac(inst.blocks, inst.k,
                              std::make_unique<CheckedSeparation>(out));
    ReferenceFractionalBlockAware twin(inst.blocks, inst.k);
    for (Time t = 1; t <= inst.horizon(); ++t) {
      const auto& got = frac.step(t, inst.request_at(t));
      const auto& want = twin.step(t, inst.request_at(t));
      if (!bit_identical(got, want)) {
        report(out, "policy_equivalence",
               "Algorithm 2 diverges from its reference twin at t=" +
                   std::to_string(t) + " (" + std::to_string(got.size()) +
                   " vs " + std::to_string(want.size()) + " increments)");
        return;
      }
    }
    const auto same = [](double a, double b) {
      return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    if (!same(frac.dual_objective(), twin.dual_objective()) ||
        !same(frac.fractional_cost(), twin.fractional_cost()))
      report(out, "policy_equivalence",
             "Algorithm 2's dual " + fmt(frac.dual_objective()) +
                 " and fractional cost " + fmt(frac.fractional_cost()) +
                 " differ from its reference twin's " +
                 fmt(twin.dual_objective()) + " and " +
                 fmt(twin.fractional_cost()));
  } catch (const std::exception& e) {
    report(out, "policy_equivalence",
           std::string("fractional algorithm failed: ") + e.what());
  }
}

std::vector<Violation> check_policy_equivalence(const GeneratedInstance& gi,
                                                const OracleOptions& options) {
  std::vector<Violation> out;
  diff_fractional_twin(gi.inst, out);
  for (auto& [name, ref] : reference_policy_twins()) {
    std::unique_ptr<OnlinePolicy> prod;
    try {
      prod = make_policy(name);
    } catch (const std::exception& e) {
      report(out, "policy_equivalence",
             "registry lookup for '" + name + "' failed: " + e.what());
      continue;
    }
    for (const std::string& msg :
         diff_policy_runs(gi.inst, *prod, *ref, options.seed, name))
      report(out, "policy_equivalence", msg);
  }
  return out;
}

// --- mc_equivalence ---------------------------------------------------------

/// Forwards everything but clone(), forcing simulate_mc down its serial
/// fallback path.
class NonCloneable final : public OnlinePolicy {
 public:
  explicit NonCloneable(OnlinePolicy& inner) : inner_(&inner) {}
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(const Instance& inst) override { inner_->reset(inst); }
  void seed(std::uint64_t s) override { inner_->seed(s); }
  void on_request(Time t, PageId p, CacheOps& cache) override {
    inner_->on_request(t, p, cache);
  }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }
  [[nodiscard]] bool requires_future() const override {
    return inner_->requires_future();
  }
  // clone() stays the base nullptr.

 private:
  OnlinePolicy* inner_;
};

std::vector<Violation> check_mc_equivalence(const GeneratedInstance& gi,
                                            const OracleOptions& options) {
  std::vector<Violation> out;
  const Instance& inst = gi.inst;
  int used = 0;
  for (const auto& policy : policy_set(options)) {
    if (!policy->randomized() || policy->requires_future()) continue;
    if (used++ >= options.max_concurrency_policies) break;
    try {
      const MonteCarloResult parallel =
          simulate_mc(inst, *policy, options.mc_trials, options.seed);
      NonCloneable serial_policy(*policy);
      const MonteCarloResult serial =
          simulate_mc(inst, serial_policy, options.mc_trials, options.seed);
      if (parallel.mean_eviction_cost != serial.mean_eviction_cost ||
          parallel.mean_fetch_cost != serial.mean_fetch_cost ||
          parallel.stddev_eviction_cost != serial.stddev_eviction_cost ||
          parallel.stddev_fetch_cost != serial.stddev_fetch_cost ||
          parallel.mean_total_cost != serial.mean_total_cost ||
          parallel.stddev_total_cost != serial.stddev_total_cost ||
          parallel.total_requests != serial.total_requests)
        report(out, "mc_equivalence",
               policy->name() + ": parallel trials diverge from serial (" +
                   fmt(parallel.mean_total_cost) + " vs " +
                   fmt(serial.mean_total_cost) + ")");
    } catch (const std::exception& e) {
      report(out, "mc_equivalence",
             "policy " + policy->name() + " failed: " + e.what());
    }
  }
  return out;
}

// --- concurrency ------------------------------------------------------------

std::vector<Violation> check_concurrency(const GeneratedInstance& gi,
                                         const OracleOptions& options) {
  std::vector<Violation> out;
  const Instance& inst = gi.inst;
  if (inst.requests.empty()) return out;
  int used = 0;
  for (const auto& policy : policy_set(options)) {
    if (policy->requires_future() || !policy->clone()) continue;
    if (used++ >= options.max_concurrency_policies) break;
    try {
      const int shards = server::ConcurrentCache::max_shards(inst);
      server::ConcurrentCache one(inst, *policy, shards, options.seed);
      server::serve_partitioned(one, inst.requests, 1);
      server::ConcurrentCache many(inst, *policy, shards, options.seed);
      server::serve_partitioned(many, inst.requests, options.threads);
      const server::ServerStats a = one.stats();
      const server::ServerStats b = many.stats();
      if (a.counters() != b.counters() || a.cached_pages != b.cached_pages)
        report(out, "concurrency",
               policy->name() + ": 1 thread vs " +
                   std::to_string(options.threads) + " threads: " +
                   versus(a, b) + ", cached " +
                   std::to_string(a.cached_pages) + " vs " +
                   std::to_string(b.cached_pages));
      // The bacobs determinism contract: every exported event counter —
      // not just the stats fields above — must be bit-identical across
      // thread counts. snapshot() is name-sorted, so a pairwise walk
      // compares the full counter sections.
      obs::MetricRegistry reg_one, reg_many;
      one.export_metrics(reg_one);
      many.export_metrics(reg_many);
      const obs::MetricsSnapshot snap_one = reg_one.snapshot();
      const obs::MetricsSnapshot snap_many = reg_many.snapshot();
      if (snap_one.counters != snap_many.counters) {
        std::string diff = "exported counter sets differ";
        for (std::size_t c = 0;
             c < snap_one.counters.size() && c < snap_many.counters.size();
             ++c)
          if (snap_one.counters[c] != snap_many.counters[c]) {
            diff = snap_one.counters[c].first + ": 1-thread " +
                   std::to_string(snap_one.counters[c].second) + " != " +
                   std::to_string(options.threads) + "-thread " +
                   std::to_string(snap_many.counters[c].second);
            break;
          }
        report(out, "concurrency",
               policy->name() + ": metrics counters not thread-count "
               "invariant (" + diff + ")");
      }
    } catch (const std::exception& e) {
      report(out, "concurrency",
             "policy " + policy->name() + " failed: " + e.what());
    }
  }
  return out;
}

using FamilyFn = std::vector<Violation> (*)(const GeneratedInstance&,
                                            const OracleOptions&);
struct Family {
  const char* name;
  FamilyFn run;
};

constexpr Family kFamilies[] = {
    {"cost_sandwich", check_cost_sandwich},
    {"cost_model", check_cost_model},
    {"streaming", check_streaming},
    {"schedule_replay", check_schedule_replay},
    {"policy_equivalence", check_policy_equivalence},
    {"mc_equivalence", check_mc_equivalence},
    {"concurrency", check_concurrency},
};

}  // namespace

std::vector<std::string> oracle_family_names() {
  std::vector<std::string> names;
  for (const Family& f : kFamilies) names.emplace_back(f.name);
  return names;
}

std::vector<Violation> check_family(const std::string& family,
                                    const GeneratedInstance& gi,
                                    const OracleOptions& options) {
  for (const Family& f : kFamilies)
    if (family == f.name) return f.run(gi, options);
  throw std::invalid_argument("check_family: unknown oracle family '" +
                              family + "'");
}

std::vector<Violation> check_instance(const GeneratedInstance& gi,
                                      const std::vector<std::string>& families,
                                      const OracleOptions& options) {
  std::vector<Violation> out;
  if (families.empty()) {
    for (const Family& f : kFamilies) {
      auto v = f.run(gi, options);
      out.insert(out.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
    }
    return out;
  }
  for (const std::string& name : families) {
    auto v = check_family(name, gi, options);
    out.insert(out.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }
  return out;
}

}  // namespace bac::verify
