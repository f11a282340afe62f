// Frozen reference implementations: std::set-based twins of the
// deterministic classical policies, for the policy_equivalence oracle
// family; the stateless scan ThresholdSeparation replaced and Algorithm 2
// with its plain saturation bisection, for the same family's Algorithm 2
// check; the exhaustive separation oracle the tests
// check the other oracles against; the full-scan fractional
// weighted paging with its threshold-rounding policy; and Algorithm 1
// with its rescanning dual-load lists.
//
// The production policies in algs/policies/ keep their eviction orders
// in the flat primitives from core/eviction_index.hpp (intrusive lists,
// lazy heaps). These twins keep the original
// std::set<std::pair<Key, id>> bookkeeping, verbatim from the code the
// rewrite replaced — deliberately boring, allocation-heavy, and obviously
// ordered. The oracle replays every fuzzed instance through both and
// demands bit-identical costs, counters, and per-step schedules read off
// the cache (record_run), so any tie-breaking drift in the fast indexes
// diffs red against the textbook structure instead of surviving silently.
//
// Do not "optimize" these: their entire value is staying a frozen
// specification.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algs/fractional.hpp"
#include "algs/threshold_bicriteria.hpp"
#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/schedule.hpp"
#include "submodular/flush_coverage.hpp"
#include "submodular/separation.hpp"
#include "verify/dual_verifier.hpp"

namespace bac::verify {

/// (registry spec, frozen reference twin) for every deterministic policy
/// rewritten onto the flat eviction indexes: the classical set (lru,
/// fifo, lfu, belady, greedy_dual, block_lru, block_lru_prefetch) plus
/// the modern zoo (s3fifo — default and one off-default knob spec —
/// sieve, arc, block_s3fifo, block_sieve); then threshold_fetch and
/// threshold_evict over the full-scan fractional substrate, and
/// det_online with its per-request entry lists. Specs resolve through
/// make_policy, so the parameterized-spec grammar is fuzzed too.
std::vector<std::pair<std::string, std::unique_ptr<OnlinePolicy>>>
reference_policy_twins();

/// An online run's counters and its net schedule (record_run).
struct RecordedRun : CostCounters {
  /// Step t's net moves, read off the cache: the pages cached before the
  /// step and not after are its evictions, the reverse its fetches, both
  /// ascending.
  Schedule schedule;
  /// Cached pages after the last step, sorted.
  std::vector<PageId> final_cache;
  /// Metered page moves the schedule does not hold: a page that moves
  /// both ways within one step counts twice. When 0, replay_schedule()
  /// reproduces the run's counts exactly, and its costs but for the order
  /// their terms are added in; otherwise the replay ends in the same
  /// state but may cost less.
  long long transients = 0;
};

/// Serve `inst` through `policy` (seeded with `seed`) on the step kernel
/// and read each step's schedule off the cache. A step whose metered page
/// counts did not move changed nothing, so it is recorded empty without a
/// scan. Throws std::invalid_argument on an invalid instance, and
/// std::runtime_error if the policy fails the kernel's audit.
RecordedRun record_run(const Instance& inst, OnlinePolicy& policy,
                       std::uint64_t seed);

/// Record `inst` through both policies (seed forwarded) and describe every
/// divergence: different counters (both records printed whole), a
/// different final cache, or the first step whose evictions or fetches
/// differ. Empty result == the runs are equivalent. `label` prefixes the
/// messages. A policy throwing is itself reported as a divergence.
std::vector<std::string> diff_policy_runs(const Instance& inst,
                                          OnlinePolicy& a, OnlinePolicy& b,
                                          std::uint64_t seed,
                                          const std::string& label);

/// ThresholdSeparation as it was before its cached rewrite, verbatim but
/// for one re-specification: its net and its S' picks take only non-dead
/// entries (g-marginal > 0 w.r.t. S). On every call it sorts the phi of
/// every non-dead live entry, nets them to at most ~48 thresholds and
/// rebuilds and scores S' anew for each threshold.
/// The production oracle must return the same Violation bit for bit
/// (lhs, rhs, g and every max_flush); tests and policy_equivalence diff
/// them.
/// (bac::Violation is the separation result, not verify::Violation.)
class ReferenceThresholdSeparation final : public SeparationOracle {
 public:
  explicit ReferenceThresholdSeparation(double tolerance = 1e-9)
      : tolerance_(tolerance) {}
  std::optional<bac::Violation> find_violated(const FlushSet& S,
                                              const FlushVars& phi) override;

 private:
  double tolerance_;
};

/// Exhaustive search over per-block max-flush-time combinations drawn from
/// entry times and alive times. Exponential in the number of blocks —
/// only for validating the other oracles on small instances.
/// (bac::Violation is the separation result, not verify::Violation.)
class ExhaustiveSeparation final : public SeparationOracle {
 public:
  explicit ExhaustiveSeparation(double tolerance = 1e-9)
      : tolerance_(tolerance) {}
  std::optional<bac::Violation> find_violated(const FlushSet& S,
                                              const FlushVars& phi) override;

 private:
  double tolerance_;
};

/// FractionalWeightedPaging before its incremental rewrite, verbatim: each
/// step copies x twice, runs all 100 bisection halvings, calls std::exp
/// for every seen page in each, and charges the fetch costs with passes
/// over every page and every block. The production class must match its
/// x and both cost accumulators bit for bit after every step. It keeps a
/// pointer to `inst`'s BlockMap, which must outlive it.
class ReferenceFractionalWeightedPaging {
 public:
  explicit ReferenceFractionalWeightedPaging(const Instance& inst);

  /// Serve a request; returns the post-step missing-mass vector x.
  const std::vector<double>& step(PageId p);

  [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }
  [[nodiscard]] double classic_fetch_cost() const noexcept {
    return fetch_cost_;
  }
  [[nodiscard]] double block_fetch_cost() const noexcept {
    return block_fetch_cost_;
  }

 private:
  const BlockMap* blocks_;
  int k_;
  std::vector<double> x_;      // missing mass per page
  std::vector<double> cost_;   // per-page cost (its block's cost)
  std::vector<char> seen_;     // requested at least once
  double fetch_cost_ = 0;
  double block_fetch_cost_ = 0;

  [[nodiscard]] double cached_mass() const;
};

/// ThresholdBicriteriaPolicy before it scanned only the moved pages, over
/// ReferenceFractionalWeightedPaging: both modes scan all n pages every
/// step and copy the whole x into prev_x_. Its h line was re-specified
/// when the beta > floor(k/2) case was decided, so that one rounding path
/// serves every instance: h = max(1, floor(k/2)), never raised to beta. The
/// rest stays verbatim, Fetching's batch fetch, Eviction's block rescan
/// and the capacity guard included, so the production policy's one code
/// path must match both modes bit for bit. Eviction evicts its crossed
/// blocks' pages in ascending page order, as Fetching and the policy do,
/// so that the meter sums classic eviction costs in one order also on
/// non-contiguous blocks.
/// Not cloneable: its substrate points into its own half-size Instance
/// copy.
class ReferenceThresholdBicriteria final : public OnlinePolicy {
 public:
  using Mode = ThresholdBicriteriaPolicy::Mode;
  explicit ReferenceThresholdBicriteria(Mode mode) : mode_(mode) {}

  [[nodiscard]] std::string name() const override {
    return mode_ == Mode::Fetching ? "RefBA-Bicrit(fetch,2h)"
                                   : "RefBA-Bicrit(evict,2h)";
  }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;

  [[nodiscard]] double fractional_block_fetch() const {
    return frac_->block_fetch_cost();
  }

 private:
  Mode mode_;
  std::optional<Instance> half_;  ///< stable storage for frac_'s references
  std::optional<ReferenceFractionalWeightedPaging> frac_;
  std::vector<double> prev_x_;
};

/// DetOnlineBlockAware (Algorithm 1) before it kept one dual-load entry per
/// cached page, verbatim: each block's list grows by one entry per request
/// until the block is flushed, and every overflow walks every entry of
/// every block twice, two count_below binary searches each. The production
/// class must match its costs, schedule, dual_objective, max_load_ratio and
/// flushes bit for bit. Its event log feeds audit_dual_feasibility, which
/// so checks Lemma 3.4 for both classes. Not cloneable: a copy's flush set
/// would point at the source's coverage.
class ReferenceDetOnline final : public OnlinePolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "RefBA-Det(Alg1)";
  }
  void reset(const Instance& inst) override;
  void on_request(Time t, PageId p, CacheOps& cache) override;

  [[nodiscard]] double dual_objective() const noexcept { return dual_obj_; }
  [[nodiscard]] long long flushes() const noexcept { return flushes_; }
  [[nodiscard]] double primal_cost() const noexcept { return primal_cost_; }
  [[nodiscard]] double max_load_ratio() const noexcept {
    return max_load_ratio_;
  }
  void enable_event_log() { log_events_ = true; }
  [[nodiscard]] const std::vector<DualEvent>& event_log() const noexcept {
    return events_;
  }

 private:
  struct Entry {
    Time t = 0;
    double load = 0;
  };

  const BlockMap* blocks_ = nullptr;
  int k_ = 0;
  std::optional<FlushCoverage> cov_;
  std::optional<FlushSet> S_;
  std::vector<std::vector<Entry>> entries_;  // per block, sorted by t
  double dual_obj_ = 0;
  double primal_cost_ = 0;
  long long flushes_ = 0;
  double max_load_ratio_ = 0;
  bool log_events_ = false;
  std::vector<DualEvent> events_;
};

/// FractionalBlockAware (Algorithm 2) before its saturation bisection
/// consulted a certified bracket, verbatim: every halving of the up to 64
/// evaluates the LHS, and the oracle is the frozen stateless
/// ReferenceThresholdSeparation. The production class must match its
/// increments after every step, dual_objective() and fractional_cost() bit
/// for bit. It keeps a pointer to `blocks`, which must outlive it.
class ReferenceFractionalBlockAware {
 public:
  ReferenceFractionalBlockAware(const BlockMap& blocks, int k);

  /// Serve the request to p at time t; returns this step's increments.
  const std::vector<FractionalIncrement>& step(Time t, PageId p);

  [[nodiscard]] double fractional_cost() const {
    return vars_.total_cost(*blocks_);
  }
  [[nodiscard]] double dual_objective() const noexcept { return dual_obj_; }

 private:
  struct Candidate {
    BlockId b;
    Time t;
    int coeff;
    double phi;
    double rate;
    std::size_t slot;
  };
  const BlockMap* blocks_;
  double eps_;
  double log_term_;
  ReferenceThresholdSeparation oracle_;
  std::optional<FlushCoverage> cov_;
  std::optional<FlushSet> S_;
  FlushVars vars_;
  double dual_obj_ = 0;
  long long integral_flushes_ = 0;
  std::vector<FractionalIncrement> increments_;
  std::vector<Candidate> alive_;
  std::vector<Time> alive_times_;
  std::vector<double> rates_;
  FlatMap<std::uint64_t, std::size_t> rate_slots_;
  std::vector<double> growth_;
};

/// Do two steps' increments agree bit for bit (same order, blocks, times,
/// and bit patterns of delta and new_value)?
[[nodiscard]] bool bit_identical(const std::vector<FractionalIncrement>& a,
                                 const std::vector<FractionalIncrement>& b);

}  // namespace bac::verify
