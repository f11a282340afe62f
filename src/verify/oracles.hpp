// The invariant battery of the differential fuzz-verification subsystem.
//
// The paper's layers sandwich each other — lower bounds <= OPT <=
// feasible algorithms (Sections 3-5) — and the implementation adds
// equalities of its own (streaming == materialized replay, recorded
// schedule == replay, serial == parallel Monte-Carlo, 1 == N server
// threads). Each oracle family checks one of those relations on an
// arbitrary instance and reports every violation it can find; the fuzz
// driver feeds the families randomized instances and shrinks whatever
// fails.
//
// Families (names are the CLI / FuzzConfig identifiers):
//   cost_sandwich    lb <= OPT_evict <= every feasible policy's eviction
//                    cost (and OPT_fetch <= fetch cost); det-online within
//                    its proven k ratio, dual objectives certified below
//                    OPT; fractional cost above its own dual. Exact OPT /
//                    LP solvers cap feasibility via OracleOptions.
//   cost_model       Section 2 accounting identities on every run:
//                    batched <= classic <= beta x batched per side,
//                    fetched - evicted == final occupancy, misses <=
//                    fetched pages, block events <= page moves, cost
//                    bracketed by event counts x {min,max} block cost;
//                    rand_online made no fallback alteration;
//                    threshold_fetch and threshold_evict paid batched
//                    fetch <= 2 x their fractional block fetch cost, on
//                    every instance (Theorem 4.1).
//   streaming        simulate() over the materialized instance equals
//                    simulate() over the streaming twin, field by field.
//   schedule_replay  the net schedule record_run() reads off a live run
//                    replays through replay_schedule() to the same final
//                    cache, and, when no page moved both ways within a
//                    step, to the same counts and costs (these up to the
//                    order their terms are added in).
//   policy_equivalence
//                    every flat-index classical policy (LRU, FIFO, LFU,
//                    Belady, GreedyDual, BlockLRU±prefetch) replays to
//                    bit-identical costs, counters, and per-step schedules
//                    against its frozen std::set reference twin
//                    (verify/reference_policies.hpp) — the golden-corpus
//                    semantics, checked on arbitrary fuzzed instances.
//                    And Algorithm 2's increments bit-identical per step
//                    under ThresholdSeparation and its frozen stateless
//                    twin, every Violation's lhs equal to constraint_lhs
//                    bit for bit and below rhs - tolerance, on every
//                    instance (no size gate, so large ones reach the
//                    thinned threshold net).
//   mc_equivalence   simulate_mc parallel (clone-sharded) == forced-serial
//                    replay, bit for bit.
//   concurrency      ConcurrentCache + serve_partitioned at 1 thread ==
//                    N threads, bit-identical block-aware cost.
//
// A policy throwing (infeasibility detected by the simulator's audit,
// or any other exception) is itself reported as a violation — that is
// how an injected off-by-one eviction bug surfaces.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "verify/gen.hpp"

namespace bac::verify {

struct Violation {
  std::string family;  ///< oracle family that fired
  std::string detail;  ///< what failed, with the numbers involved
};

/// Factory for the policies a family exercises; empty => the full zoo.
/// Tests inject deliberately buggy policies through this.
using PolicySetFactory =
    std::function<std::vector<std::unique_ptr<OnlinePolicy>>()>;

struct OracleOptions {
  std::uint64_t seed = 1;
  /// cost_sandwich feasibility caps (exact OPT is exponential, the LP is
  /// a dense simplex); instances beyond the caps skip the family.
  int sandwich_max_pages = 10;
  long long sandwich_max_T = 36;
  int mc_trials = 3;   ///< trials for mc_equivalence
  int threads = 4;     ///< client threads for the concurrency family
  /// Cap on how many (cloneable) policies the expensive thread-spawning
  /// families run per instance.
  int max_concurrency_policies = 3;
  PolicySetFactory policies;  ///< null => make_policy_zoo(All)
};

/// The family identifiers, in canonical order.
std::vector<std::string> oracle_family_names();

/// Run one family over the instance; throws std::invalid_argument for an
/// unknown family name.
std::vector<Violation> check_family(const std::string& family,
                                    const GeneratedInstance& gi,
                                    const OracleOptions& options);

/// Run `families` (empty = all) and concatenate the violations.
std::vector<Violation> check_instance(const GeneratedInstance& gi,
                                      const std::vector<std::string>& families,
                                      const OracleOptions& options);

}  // namespace bac::verify
