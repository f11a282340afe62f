// Separation oracles for the submodular-cover LP (P) at the current tau.
//
// The primal constraint for a flush set S' and the current time tau is
//     sum_{(B,t)} f_tau((B,t) | S') * phi_B^t  >=  (n - k) - f_tau(S').
// Deciding feasibility over *all* S' is not polynomial in general; the
// paper's fractional algorithm only ever needs constraints for S' >= S
// where S is the set of integrally-chosen flushes (Claim 3.10). Following
// the round-or-separate viewpoint of [GL20b], ThresholdSeparation searches
// the family { S } and { S + all non-dead entries with phi >= theta } over
// a geometric net of the non-dead entries' phi values; DpSeparation is exact
// and polynomial. (verify::ExhaustiveSeparation, which enumerates every
// relevant per-block max-flush combination, checks both on small
// instances.)
//
// ThresholdSeparation's answer is a fixed function of (S, phi). An entry
// (B, t) of phi is dead when its g-marginal w.r.t. S is 0: t <= m_B, or
// no page of B has its last request r(p) in [m_B, t), m_B = S's max
// flush in B. The net is every distinct non-dead phi > 0, thinned to
// ratio-1.3 steps once there are more than 40, and the first theta
// whose S'(theta) -- S plus, per block, the latest non-dead entry with
// phi >= theta -- is violated wins. Three exact facts make it cheap:
//
//   * Dead entries are a time-prefix. A live entry's g-marginal #{p in
//     B : r(p) in [m_B, t)} grows with t, so B's dead entries are the
//     ones before its first non-dead entry. They add nothing to
//     constraint_lhs(S') for any S' >= S, so Algorithm 2 never grows
//     them again; as requests only move r(p) past t and S only raises
//     m_B, they stay dead. Picking one for S' would change neither g(S')
//     nor any LHS term, so S' picks non-dead entries only and the net
//     thins over their values alone.
//   * Equivalent S'. S'(theta) changes only when theta passes a
//     right-to-left maximum of phi among B's non-dead entries; a theta
//     that passes none gives the S' just checked and is skipped.
//   * Marginals by walking. Each non-dead entry's count_below comes from
//     one merged walk over B's entries and sorted last requests; the LHS
//     adds the same terms in the same order as constraint_lhs.
//
// What a call derives is kept across calls, keyed by stamps (see
// flush_coverage.hpp) and m_B, never by addresses or by comparing
// contents:
//
//   * Per block, its split (count_below(m_B), the index of its first
//     non-dead entry, the non-dead entries with their count_below, the
//     right-to-left maxima) depends only on B's entries, B's sorted last
//     requests and m_B. It is rebuilt only when its key (phi's stamp for
//     B, the coverage's stamp for B, m_B) differs from the one it was
//     built from; a block whose key matches costs three compares. So
//     Algorithm 2's call right after a request rebuilds only the
//     requested block.
//   * The net depends only on the multiset of non-dead phi, so only on
//     each block's (phi stamp, index of its first non-dead entry): it is
//     stale only when one of those differs from the net's own record of
//     what it was built from. A request changes neither unless it kills
//     an entry (the page's old r(p) leaves [m_B, t)), and a stale net is
//     often kept (below).
//   * The steps (every block's maxima, sorted by phi) change only when
//     some rebuilt block's maxima changed, and then only those blocks'
//     steps move: they are dropped, and the blocks' new maxima are sorted
//     and merged into the kept steps, before S itself is checked, so an
//     early answer never leaves them stale. Steps of equal phi are passed
//     by the same theta, so their order within a tie is immaterial.
//
// Deciding an S' without its add chain. constraint_lhs's bits come from
// one add chain, block by block and then by time; a Violation carries
// them, and no other order gives them. But "is l < rhs - tolerance?"
// seldom needs them. A rebuild also stores, per block, choice (nothing
// chosen, or one of its maxima) and cap v = 1..beta, the sum of
// min(gm, v) * phi over the terms that choice leaves; the rows of a
// block's nested suffixes come from one right-to-left walk. Scoring
// S'(theta) at g = g(S') then adds one stored value per block (column
// min(cap - g, beta), since gm <= beta), and theta passing a step only
// moves that block's row. Both that total and the chain sum the same
// nonnegative terms, the chain within gamma(terms) of their real sum and
// the total within gamma(terms + 2 beta + blocks) (gamma(m) = m u / (1 -
// m u), u = 2^-53), so the two differ by at most 2^-51 (terms + 2 beta +
// blocks) times the total, up to second-order terms; the oracle takes
// twice that as its bound. When total +- bound lies on one side of rhs -
// tolerance, so does the chain's l, and that side is the answer. Only S'
// within the bound of the threshold run the exact chain, as does every S'
// found violated, so each Violation keeps the chain's bits and every
// answer is the stateless scan's. counts() reports how many S' were
// scored and how many of them the chain had to decide.
//
// No dead value is kept anywhere, so the oracle's state is O(non-dead
// entries + blocks) however long the trace. The net's points are found
// only as a scan reads them. A stale net's refresh gathers the non-dead
// phi into one flat array and counts their distinct values, stopping at
// 41; with at most 40 the net is all of them, descending. Past 40 it
// stores only the largest, and a scan that reaches the last stored point
// asks for the next: the largest value <= last / 1.3 (or < last, where a
// subnormal last / 1.3 rounds back to last), found by one branch-free
// pass over the values' bits, and after the last such point the smallest
// value, found by another. Stored points serve later calls until the net
// goes stale. A scan stops once it has passed every step: no later theta
// can give a new S'.
//
// A stale net keeps its stored points across kills. When every block's
// phi stamp still matches the net's record and no first non-dead index
// moved back, the values that left the net are the killed entries,
// entries(b)[recorded first, first) of each block. If none of them is a
// stored point and more than 40 distinct values remain, the points stay
// exact: each is the largest value <= the previous point / 1.3 (the first
// the largest of all), and removing other values leaves every such
// maximum. Later points, the smallest value among them, are found from the
// values that remain, so none is stale. Otherwise, and when a first moved
// back (a reused oracle asked about a smaller S on the same phi, which
// brings values back), the net is found afresh. counts() says how many
// nets were found afresh and kept, and how many points were found.
//
// So a reused oracle (other phi, other coverages, other FlushVars)
// returns exactly what the stateless scan returns. The stateless scan is
// kept as verify::ReferenceThresholdSeparation; tests and the
// policy_equivalence fuzz family diff the two bit for bit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "submodular/flush_coverage.hpp"
#include "submodular/flush_vars.hpp"

namespace bac {

struct Violation {
  FlushSet sprime;  ///< the violated constraint's S'
  double lhs = 0;   ///< sum of capped marginals times phi
  double rhs = 0;   ///< (n-k) - f_tau(S')
  [[nodiscard]] double amount() const noexcept { return rhs - lhs; }
};

/// LHS of the constraint (S', tau): entries with time <= the block's max
/// flush in S' contribute zero (their capped marginal vanishes).
[[nodiscard]] double constraint_lhs(const FlushSet& sprime,
                                    const FlushVars& phi);

/// How an oracle decided its S'. Every count is a function of its calls'
/// arguments alone.
struct SeparationCounts {
  long long scored = 0;  ///< S' whose violation was decided
  long long exact = 0;   ///< of those, decided by the exact add chain
  long long net_builds = 0;  ///< threshold nets found afresh
  long long net_kept = 0;    ///< stale nets kept across kills
  long long net_points = 0;  ///< thinned-net points found, the largest too
};

class SeparationOracle {
 public:
  virtual ~SeparationOracle() = default;
  /// Find some violated constraint (S', tau) with S' >= S, or nullopt.
  virtual std::optional<Violation> find_violated(const FlushSet& S,
                                                 const FlushVars& phi) = 0;
  /// Zero for an oracle that keeps no counts.
  [[nodiscard]] virtual SeparationCounts counts() const { return {}; }
};

class ThresholdSeparation final : public SeparationOracle {
 public:
  /// `tolerance`: constraints violated by less than this are ignored
  /// (guards against floating-point churn in the closed-form updates).
  explicit ThresholdSeparation(double tolerance = 1e-9)
      : tolerance_(tolerance) {}
  /// Entry times must not exceed the coverage's current tau (the
  /// Violation's S' is built with FlushSet::add_flush).
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override;
  [[nodiscard]] SeparationCounts counts() const override { return counts_; }

 private:
  /// A non-dead entry (positive g-marginal w.r.t. S) with positive phi.
  struct Active {
    double phi;
    Time t;
    int below;  ///< count_below(b, t)
  };
  /// A right-to-left maximum of phi among one block's active entries.
  struct Maximum {
    double phi;
    int index;  ///< into the block's active
    int below;  ///< its count_below
  };
  /// Block b's maximum m, as the sorted steps hold it.
  struct Step {
    double phi;
    BlockId b;
    int m;  ///< into block b's maxima
  };
  /// What one block derives from its entries, its sorted last requests
  /// and m_b.
  struct Block {
    // The key it was built from; stamps start at 1, so 0 is never built.
    std::uint64_t phi_stamp = 0;
    std::uint64_t cov_stamp = 0;
    Time m = 0;
    // The net's record: the phi stamp and first it was last refreshed
    // from.
    std::uint64_t net_phi_stamp = 0;
    int net_first = 0;
    int base = 0;   ///< count_below(b, m_b)
    int first = 0;  ///< index into entries(b) of the first non-dead entry
    std::vector<Active> active;
    std::vector<Maximum> maxima;  ///< right to left
    // The block's LHS terms summed per choice and cap: row j (0: nothing
    // chosen, m + 1: maxima[m] chosen), column v - 1 (v = 1..beta) holds
    // the sum of min(gm, v) * phi over the terms the choice leaves.
    std::vector<double> sums;
  };

  /// Re-derive block b against m; returns whether its maxima changed.
  bool rebuild(Block& blk, BlockId b, const FlushVars& phi,
               const FlushCoverage& cov, Time m);
  /// blk.sums from its active entries and maxima.
  void sum_terms(Block& blk);
  /// Bring the stale net up to date with every block's non-dead phi,
  /// keeping its points if kills_only allows (see the header).
  void refresh_net(const FlushVars& phi, bool kills_only);
  /// Append the thinned net's next point to thresholds_ (not empty);
  /// returns false if it has none.
  bool extend_net();
  /// Replace the restepped_ blocks' steps by their current maxima,
  /// keeping steps_ sorted by descending phi.
  void merge_steps();
  /// Is S plus each block's chosen_ maximum violated, with g(S') = g? Its
  /// constraint_lhs if so.
  [[nodiscard]] std::optional<double> violated_lhs(int cap, int g);
  /// constraint_lhs of S plus each block's chosen_ maximum, g(S') = g.
  [[nodiscard]] double chosen_lhs(int cap, int g) const;
  /// S plus each block's chosen_ maximum: the S'(theta) just scored.
  [[nodiscard]] FlushSet sprime(const FlushSet& S) const;

  double tolerance_;
  SeparationCounts counts_;
  int beta_ = 0;        ///< the sums' row length
  long long terms_ = 0; ///< active entries over all blocks
  std::vector<Block> blocks_;
  std::vector<double> thresholds_;  ///< the net's points found, descending
  /// The non-dead phi > 0 the net is over; later points come from these.
  std::vector<double> active_phi_;
  std::vector<Step> steps_;         ///< descending phi
  // Per-call buffers, kept for their capacity.
  std::vector<int> chosen_;  ///< per block: index into its maxima or -1
  std::vector<const double*> rows_;  ///< per block: its chosen sums row
  std::vector<Maximum> maxima_;     ///< rebuild's new maxima
  /// Per block: its maxima changed since the steps were merged.
  std::vector<char> restep_;
  std::vector<BlockId> restepped_;  ///< the blocks with restep_ set
  std::vector<Step> fresh_;         ///< merge_steps' new steps
  std::vector<Step> merged_;        ///< merge_steps' output
  std::vector<double> level_;       ///< sum_terms' per-gm phi sums
  std::vector<double> distinct_;    ///< refresh_net's distinct values
};

/// *Exact* polynomial-time separation. Because the uncapped coverage g_tau
/// decomposes as a sum of per-block terms that depend only on the block's
/// maximum flush time, a constraint (S', tau) is determined by the vector
/// of per-block max flush times and couples across blocks only through
/// G = g_tau(S'). For each target G < n-k, a knapsack DP over blocks
/// minimizes the constraint LHS among all S' with g(S') = G (per-block
/// candidate times are the alive times, entry times and `now`); the most
/// negative slack over G is the most violated constraint. O(n * n_blocks *
/// candidates * entries) per call — heavier than ThresholdSeparation but
/// complete; used by tests and available for exact experiment runs.
class DpSeparation final : public SeparationOracle {
 public:
  explicit DpSeparation(double tolerance = 1e-9) : tolerance_(tolerance) {}
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override;

 private:
  double tolerance_;
};

}  // namespace bac
