// Tests for the LP (P) separation oracles: LHS evaluation, detection of
// violated constraints, agreement between the online threshold oracle
// and the exhaustive oracle on small instances, and bit-identity of the
// cached threshold oracle with its frozen stateless twin.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algs/fractional.hpp"
#include "submodular/separation.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "verify/reference_policies.hpp"

namespace bac {
namespace {

struct World {
  BlockMap blocks = BlockMap::contiguous(6, 2);  // 3 blocks of 2
  FlushCoverage cov{blocks, 3};                  // cap = 3
};

TEST(Separation, ZeroSolutionIsViolated) {
  World s;
  for (Time t = 1; t <= 6; ++t) s.cov.advance(static_cast<PageId>(t - 1), t);
  FlushSet S = FlushSet::empty(s.cov);
  FlushVars phi(3);
  ThresholdSeparation oracle;
  const auto v = oracle.find_violated(S, phi);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->lhs, 0.0);
  EXPECT_DOUBLE_EQ(v->rhs, 3.0);  // n - k - f(empty) = 3
}

TEST(Separation, InitialFlushSetIsFeasible) {
  World s;
  FlushSet S(s.cov);  // all blocks flushed at 0: f = cap already
  FlushVars phi(3);
  for (BlockId b = 0; b < 3; ++b) phi.raise_to(b, 0, 1.0);
  ThresholdSeparation oracle;
  EXPECT_FALSE(oracle.find_violated(S, phi).has_value());
}

TEST(Separation, FractionalMassSatisfiesConstraint) {
  World s;
  // Request each page once so every block has alive flushes.
  for (Time t = 1; t <= 6; ++t) s.cov.advance(static_cast<PageId>(t - 1), t);
  FlushSet S = FlushSet::empty(s.cov);
  FlushVars phi(3);
  ThresholdSeparation oracle;
  // One block fully evicted at time 6 misses 2 pages, but the constraint
  // needs cap = 3: violated.
  phi.raise_to(0, 6, 1.0);
  auto v = oracle.find_violated(S, phi);
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(v->rhs, v->lhs);
  // A second block closes the gap: lhs = 2 + 2 >= 3 at S, and every
  // threshold superset constraint is saturated (f reaches the cap).
  phi.raise_to(1, 6, 1.0);
  EXPECT_FALSE(oracle.find_violated(S, phi).has_value());
  // Cross-check with the exhaustive oracle.
  verify::ExhaustiveSeparation exhaustive;
  EXPECT_FALSE(exhaustive.find_violated(S, phi).has_value());
}

TEST(Separation, DpOracleIsExactAgainstExhaustive) {
  // The DP oracle must agree with the exponential-time exhaustive oracle
  // on every random case; the threshold heuristic may miss rare violations
  // (tracked below) but must never report spurious ones.
  Xoshiro256pp rng(123);
  int violated_cases = 0;
  int threshold_misses = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 6;
    const int beta = 2;
    const int k = 3;
    const BlockMap blocks = BlockMap::contiguous(n, beta);
    FlushCoverage cov(blocks, k);
    const Time T = 8;
    for (Time t = 1; t <= T; ++t)
      cov.advance(static_cast<PageId>(rng.below(n)), t);

    FlushSet S = FlushSet::empty(cov);
    FlushVars phi(blocks.n_blocks());
    for (int i = 0; i < 5; ++i) {
      const auto b = static_cast<BlockId>(rng.below(3));
      const auto t = static_cast<Time>(1 + rng.below(T));
      phi.increase(b, t, 0.25 * (1 + rng.below(3)));
    }

    verify::ExhaustiveSeparation exhaustive;
    DpSeparation dp;
    ThresholdSeparation threshold;
    const auto ve = exhaustive.find_violated(S, phi);
    const auto vd = dp.find_violated(S, phi);
    const auto vt = threshold.find_violated(S, phi);
    ASSERT_EQ(ve.has_value(), vd.has_value())
        << "DP oracle disagreed with exhaustive (trial " << trial << ")";
    if (ve.has_value()) {
      ++violated_cases;
      EXPECT_NEAR(vd->amount(), ve->amount(), 1e-9)
          << "DP oracle should find the most violated constraint";
      if (!vt.has_value()) ++threshold_misses;
    } else {
      EXPECT_FALSE(vt.has_value())
          << "threshold oracle found a spurious violation";
    }
  }
  EXPECT_GT(violated_cases, 10) << "test should exercise violated cases";
  // Known incompleteness of the threshold family (it only searches the
  // level sets documented in submodular/separation.hpp): it may miss
  // mixed-level violations, but should catch the large majority.
  EXPECT_LE(threshold_misses * 4, violated_cases);
}

/// The two oracles' answers agree bit for bit: presence, lhs, rhs, g(S')
/// and every block's max flush.
void expect_same(const std::optional<Violation>& got,
                 const std::optional<Violation>& want,
                 const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->lhs),
            std::bit_cast<std::uint64_t>(want->lhs))
      << where << ": lhs " << got->lhs << " vs " << want->lhs;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->rhs),
            std::bit_cast<std::uint64_t>(want->rhs))
      << where;
  EXPECT_EQ(got->sprime.g(), want->sprime.g()) << where;
  const int n_blocks = want->sprime.coverage().blocks().n_blocks();
  for (BlockId b = 0; b < n_blocks; ++b)
    EXPECT_EQ(got->sprime.max_flush(b), want->sprime.max_flush(b))
        << where << ": block " << b;
}

TEST(Separation, ThresholdMatchesReferenceOnRandomStates) {
  // The states of DpOracleIsExactAgainstExhaustive (same generator), then
  // larger ones with more than 40 distinct phi values (the netted path).
  // Each is asked of a fresh oracle and of one oracle reused across every
  // state, against S = empty, the initial S = {(B, 0)} and S with random
  // extra flushes.
  verify::ReferenceThresholdSeparation twin;
  ThresholdSeparation reused;
  int violated = 0;
  int netted = 0;
  struct Shape {
    int n, beta, k;
    Time T;
    int entries;
    int trials;
  };
  const Shape shapes[] = {{6, 2, 3, 8, 5, 60}, {32, 4, 8, 120, 150, 40}};
  Xoshiro256pp rng(123);   // DpOracleIsExactAgainstExhaustive's stream
  Xoshiro256pp extra(321);  // everything that test does not draw
  for (const Shape& sh : shapes) {
    for (int trial = 0; trial < sh.trials; ++trial) {
      const BlockMap blocks = BlockMap::contiguous(sh.n, sh.beta);
      FlushCoverage cov(blocks, sh.k);
      for (Time t = 1; t <= sh.T; ++t)
        cov.advance(static_cast<PageId>(rng.below(sh.n)), t);
      FlushVars phi(blocks.n_blocks());
      for (int i = 0; i < sh.entries; ++i) {
        const auto b = static_cast<BlockId>(rng.below(blocks.n_blocks()));
        const auto t = static_cast<Time>(1 + rng.below(sh.T));
        if (sh.n == 6) {
          phi.increase(b, t, 0.25 * static_cast<double>(1 + rng.below(3)));
        } else {
          const double level = 0.01 * static_cast<double>(1 + rng.below(3));
          phi.increase(b, t, level + 1e-3 * extra.uniform());
        }
      }
      FlushSet flushed(cov);
      for (BlockId b = 0; b < blocks.n_blocks(); ++b)
        if (extra.bernoulli(0.3))
          flushed.add_flush(b, static_cast<Time>(extra.below(sh.T + 1)));
      const FlushSet sets[] = {FlushSet::empty(cov), FlushSet(cov), flushed};
      for (const FlushSet& S : sets) {
        const std::string where = "n=" + std::to_string(sh.n) + " trial " +
                                  std::to_string(trial) + " g(S)=" +
                                  std::to_string(S.g());
        const auto want = twin.find_violated(S, phi);
        ThresholdSeparation fresh;
        expect_same(fresh.find_violated(S, phi), want, where + " fresh");
        expect_same(reused.find_violated(S, phi), want, where + " reused");
        if (want) ++violated;
      }
      std::size_t entries = 0;
      for (BlockId b = 0; b < blocks.n_blocks(); ++b)
        entries += phi.entries(b).size();
      if (entries > 40) ++netted;
    }
  }
  EXPECT_GT(violated, 60) << "states should exercise violated cases";
  EXPECT_GT(netted, 20) << "states should exercise the netted thresholds";
}

/// S plus, per block, the latest non-dead entry with phi >= theta (as
/// the twin builds its S'(theta)).
FlushSet sprime_at(const FlushSet& S, const FlushVars& phi, double theta) {
  FlushSet out = S;
  const int n_blocks = S.coverage().blocks().n_blocks();
  for (BlockId b = 0; b < n_blocks; ++b) {
    Time best = kNeverRequested;
    for (const FlushVars::Entry& e : phi.entries(b))
      if (S.g_marginal(b, e.t) > 0 && e.phi >= theta) best = e.t;
    if (best != kNeverRequested) out.add_flush(b, best);
  }
  return out;
}

TEST(Separation, ThresholdNetEdgeCasesMatchReference) {
  // Phi values where the net's octave layout could go wrong: powers of
  // two and one ulp either side, in every other octave, so that most net
  // points come from a lower octave; a ladder where each last / 1.3 is
  // exactly the next value; subnormals, where last / 1.3 rounds back to
  // last, beside the smallest normals and values near 2^30, so the net
  // walks down through empty octaves; every value in one octave; and
  // over 40 values with at most 40 distinct (the early exit). Only
  // non-dead values enter the net, so each value lands on two to four
  // entries: enough that most states still net (or exit early) on
  // non-dead values alone, and equal values fall on dead and on active
  // entries. Each state is asked, against S = empty, the initial S
  // and S with random extra flushes, of a fresh oracle, of one reused
  // across every state, and of fresh oracles whose tolerance sits just
  // below the slack of some S'(theta), negative slacks included: with
  // values this large lhs falls faster than g rises along the sweep, so
  // that makes each net point in turn the first one violated. Every
  // answer must match the stateless twin's.
  const double scale = std::ldexp(1.0, 30);
  std::vector<double> pow2;
  for (int e = 0; e <= 60; e += 2) {
    const double p = std::ldexp(1.0, e);
    pow2.insert(pow2.end(),
                {std::nextafter(p, 0.0), p, std::nextafter(p, 2 * p)});
  }
  std::vector<double> ladder;
  for (double v = 0.9 * scale; v > 1; v /= 1.3) ladder.push_back(v);
  std::vector<double> subnormal;
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double normal = std::numeric_limits<double>::min();
  for (int j = 1; j <= 40; ++j) subnormal.push_back(j * tiny);
  subnormal.push_back(std::nextafter(normal, 0.0));
  for (int j = 0; j < 8; ++j) {
    subnormal.push_back(normal * (1 + j / 8.0));
    subnormal.push_back(scale * (1 + j / 8.0));
  }
  std::vector<double> one_octave;
  for (int j = 0; j < 60; ++j) one_octave.push_back(scale * (0.5 + j / 128.0));
  std::vector<double> few;  // 40 distinct
  for (int j = 0; j < 40; ++j) few.push_back(1000.0 * (1 + j));

  struct Family {
    const char* name;
    const std::vector<double>* values;
    int netted = 0;    ///< states with over 40 distinct non-dead phi
    int early = 0;     ///< over 40 non-dead phi, at most 40 distinct
    int split = 0;     ///< a value on both a dead and an active entry
    int from_net = 0;  ///< answers at some S' other than S
  };
  Family families[] = {{"pow2", &pow2},
                       {"ladder", &ladder},
                       {"subnormal", &subnormal},
                       {"one_octave", &one_octave},
                       {"few", &few}};
  verify::ReferenceThresholdSeparation twin;
  ThresholdSeparation reused;
  Xoshiro256pp rng(2024);
  const int n = 32;
  const Time T = 120;
  for (Family& fam : families) {
    for (int trial = 0; trial < 20; ++trial) {
      const BlockMap blocks = BlockMap::contiguous(n, 4);
      FlushCoverage cov(blocks, 8);
      for (Time t = 1; t <= T; ++t)
        cov.advance(static_cast<PageId>(rng.below(n)), t);
      // Each placed value takes a (block, time) slot of its own.
      std::vector<std::pair<BlockId, Time>> slots;
      for (BlockId b = 0; b < blocks.n_blocks(); ++b)
        for (Time t = 1; t <= T; ++t) slots.emplace_back(b, t);
      FlushVars phi(blocks.n_blocks());
      std::size_t used = 0;
      for (const double v : *fam.values) {
        for (int c = 2 + static_cast<int>(rng.below(3)); c > 0; --c) {
          std::swap(slots[used],
                    slots[used + rng.below(slots.size() - used)]);
          phi.raise_to(slots[used].first, slots[used].second, v);
          ++used;
        }
      }
      FlushSet flushed(cov);
      for (BlockId b = 0; b < blocks.n_blocks(); ++b)
        if (rng.bernoulli(0.3))
          flushed.add_flush(b, static_cast<Time>(rng.below(T + 1)));
      const FlushSet sets[] = {FlushSet::empty(cov), FlushSet(cov), flushed};
      for (const FlushSet& S : sets) {
        std::vector<double> dead, active;
        for (BlockId b = 0; b < blocks.n_blocks(); ++b)
          for (const FlushVars::Entry& e : phi.entries(b))
            if (e.t > S.max_flush(b))
              (S.g_marginal(b, e.t) == 0 ? dead : active).push_back(e.phi);
        std::vector<double> net = active;  // the net's values, distinct
        std::sort(net.begin(), net.end());
        net.erase(std::unique(net.begin(), net.end()), net.end());
        if (net.size() > 40) ++fam.netted;
        if (active.size() > 40 && net.size() <= 40) ++fam.early;
        std::sort(dead.begin(), dead.end());
        if (std::any_of(active.begin(), active.end(), [&](double v) {
              return std::binary_search(dead.begin(), dead.end(), v);
            }))
          ++fam.split;

        const std::string where = std::string(fam.name) + " trial " +
                                  std::to_string(trial) + " g(S)=" +
                                  std::to_string(S.g());
        const auto want = twin.find_violated(S, phi);
        ThresholdSeparation fresh;
        expect_same(fresh.find_violated(S, phi), want, where + " fresh");
        expect_same(reused.find_violated(S, phi), want, where + " reused");
        if (want && want->sprime.g() != S.g()) ++fam.from_net;
        const int cap = cov.cap();
        for (std::size_t i = 0; i < net.size(); i += 2) {
          const FlushSet sp = sprime_at(S, phi, net[i]);
          if (sp.f() >= cap) continue;
          const double slack =
              static_cast<double>(cap - sp.f()) - constraint_lhs(sp, phi);
          const double tol = slack - 1e-6 * std::abs(slack) - 1e-9;
          const auto want_tol =
              verify::ReferenceThresholdSeparation(tol).find_violated(S, phi);
          expect_same(ThresholdSeparation(tol).find_violated(S, phi),
                      want_tol, where + " tolerance " + std::to_string(tol));
          if (want_tol && want_tol->sprime.g() != S.g()) ++fam.from_net;
        }
      }
    }
  }
  for (const Family& fam : families) {
    const bool few_distinct = fam.values == &few;
    EXPECT_GT(few_distinct ? fam.early : fam.netted, 50) << fam.name;
    EXPECT_GT(fam.split, 50) << fam.name;
    EXPECT_GT(fam.from_net, 200) << fam.name;
  }
}

/// Drives Algorithm 2 with the frozen twin's answers. On every call it
/// also asks one reused ThresholdSeparation -- on the run's phi and on
/// edited copies in the places its cache covers -- and compares.
class ReuseProbe final : public SeparationOracle {
 public:
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override {
    ++calls;
    const std::string at = "call " + std::to_string(calls);
    const auto want = twin_.find_violated(S, phi);
    expect_same(reused_.find_violated(S, phi), want, at);

    // The block with the longest dead prefix (live, g-marginal 0).
    const int n_blocks = S.coverage().blocks().n_blocks();
    BlockId dead_b = -1;
    std::vector<Time> dead;
    for (BlockId b = 0; b < n_blocks; ++b) {
      std::vector<Time> d;
      for (const FlushVars::Entry& e : phi.entries(b))
        if (e.t > S.max_flush(b) && S.g_marginal(b, e.t) == 0)
          d.push_back(e.t);
      if (d.size() > dead.size()) {
        dead = std::move(d);
        dead_b = b;
      }
    }
    if (dead.size() < 2 || dead.front() - 1 <= S.max_flush(dead_b))
      return want;
    ++edited;
    double top = 0;  // above every phi
    for (BlockId b = 0; b < n_blocks; ++b)
      for (const FlushVars::Entry& e : phi.entries(b))
        top = std::max(top, 2 * e.phi + 1);
    // Other FlushVars objects each time, then back to the run's own.
    // Dead entries are in no net and no S', so no edit of them may move
    // the answer.
    FlushVars raised = phi;  // a dead entry raised above every phi
    raised.raise_to(dead_b, dead[1], top);
    const auto want_raised = twin_.find_violated(S, raised);
    expect_same(reused_.find_violated(S, raised), want_raised,
                at + " dead entry raised");
    FlushVars inserted = raised;  // and a dead entry inserted before it
    inserted.increase(dead_b, dead.front() - 1, 0.77);
    const auto want_inserted = twin_.find_violated(S, inserted);
    expect_same(reused_.find_violated(S, inserted), want_inserted,
                at + " entry inserted before it");
    if (differ(want, want_raised) || differ(want_raised, want_inserted))
      ++dead_moved;
    // The first non-dead entry of the block, raised above every phi: a
    // new net value and S' pick.
    for (const FlushVars::Entry& e : phi.entries(dead_b)) {
      if (S.g_marginal(dead_b, e.t) == 0) continue;
      FlushVars alive = phi;
      alive.raise_to(dead_b, e.t, top);
      const auto want_alive = twin_.find_violated(S, alive);
      expect_same(reused_.find_violated(S, alive), want_alive,
                  at + " first non-dead entry raised");
      if (differ(want, want_alive)) ++moved;
      break;
    }
    return want;
  }

  int calls = 0;
  int edited = 0;
  int dead_moved = 0;  ///< dead edits that changed the twin's answer
  int moved = 0;       ///< non-dead edits that changed it

 private:
  static bool differ(const std::optional<Violation>& x,
                     const std::optional<Violation>& y) {
    if (x.has_value() != y.has_value()) return true;
    if (!x) return false;
    if (x->lhs != y->lhs || x->sprime.g() != y->sprime.g()) return true;
    const int n_blocks = x->sprime.coverage().blocks().n_blocks();
    for (BlockId b = 0; b < n_blocks; ++b)
      if (x->sprime.max_flush(b) != y->sprime.max_flush(b)) return true;
    return false;
  }

  verify::ReferenceThresholdSeparation twin_;
  ThresholdSeparation reused_;
};

/// At every state Algorithm 2 asks about, S's own constraint with the
/// tolerance set so that rhs - tolerance is constraint_lhs(S) itself or
/// one of its neighbours: a fresh ThresholdSeparation, which decides from
/// per-block sums where their error bound allows, must answer as the
/// stateless twin, whose exact add chain decides every S'.
class BoundaryProbe final : public SeparationOracle {
 public:
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override {
    const int cap = S.coverage().cap();
    const double lhs = constraint_lhs(S, phi);
    const double rhs = static_cast<double>(cap - S.g());
    if (S.g() < cap && lhs >= rhs / 2 && lhs <= 2 * rhs) {
      const double inf = std::numeric_limits<double>::infinity();
      for (const double edge :
           {std::nextafter(lhs, -inf), lhs, std::nextafter(lhs, inf)}) {
        const double tolerance = rhs - edge;  // exact (Sterbenz)
        if (rhs - tolerance != edge) continue;
        ++states;
        const auto want = verify::ReferenceThresholdSeparation(tolerance)
                              .find_violated(S, phi);
        const auto got =
            ThresholdSeparation(tolerance).find_violated(S, phi);
        EXPECT_EQ(got.has_value(), want.has_value()) << "state " << states;
        if (!got || !want) continue;
        ++violated;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got->lhs),
                  std::bit_cast<std::uint64_t>(want->lhs))
            << "state " << states;
        EXPECT_EQ(got->rhs, want->rhs) << "state " << states;
        for (BlockId b = 0; b < S.coverage().blocks().n_blocks(); ++b)
          EXPECT_EQ(got->sprime.max_flush(b), want->sprime.max_flush(b))
              << "state " << states;
      }
    }
    return inner_.find_violated(S, phi);
  }

  int states = 0;    ///< boundary tolerances probed
  int violated = 0;  ///< of those, answered with a violation

 private:
  ThresholdSeparation inner_;
};

TEST(Separation, DecidesAtTheToleranceBoundaryAsTheExactChain) {
  // At rhs - tolerance == constraint_lhs(S) the answer turns on the exact
  // chain's last bit, so every bound that is too tight or a Violation lhs
  // not from the chain diffs here. Unit and weighted costs, and
  // cap = n - k < beta, where min(gm, cap - g) caps terms.
  const BlockMap unit = BlockMap::contiguous(64, 4);
  Xoshiro256pp rng(86);
  const std::vector<Instance> instances = {
      {unit, block_local_trace(unit, 400, 0.75, 0.9, Xoshiro256pp(87)), 16},
      make_weighted_instance(48, 4, 12,
                             zipf_trace(48, 400, 0.9, rng.substream(1)),
                             log_uniform_costs(12, 16.0, rng.substream(2))),
      make_instance(40, 8, 34, zipf_trace(40, 400, 0.9, rng.substream(3)))};
  for (const Instance& inst : instances) {
    auto probe = std::make_unique<BoundaryProbe>();
    BoundaryProbe& p = *probe;
    FractionalBlockAware alg(inst.blocks, inst.k, std::move(probe));
    for (Time t = 1; t <= inst.horizon(); ++t)
      alg.step(t, inst.request_at(t));
    EXPECT_GT(p.states, 100);
    EXPECT_GT(p.violated, 0);
    EXPECT_LT(p.violated, p.states);
  }
}

TEST(Separation, ReusedOracleFollowsPhiChanges) {
  // Every state Algorithm 2 asks about on a blocklocal trace, plus two
  // edits per state inside a dead prefix and one raising the same
  // block's first non-dead entry, through one oracle object that keeps
  // its cache across all of them: each answer must be the stateless
  // twin's, bit for bit. The dead edits must move no answer; the other
  // must move some.
  const BlockMap blocks = BlockMap::contiguous(64, 4);
  const auto trace =
      block_local_trace(blocks, 400, 0.75, 0.9, Xoshiro256pp(17));
  auto probe = std::make_unique<ReuseProbe>();
  ReuseProbe& p = *probe;
  FractionalBlockAware alg(blocks, 16, std::move(probe));
  for (Time t = 1; t <= static_cast<Time>(trace.size()); ++t)
    alg.step(t, trace[static_cast<std::size_t>(t - 1)]);
  EXPECT_GT(p.edited, 100) << "runs should build long dead prefixes";
  EXPECT_EQ(p.dead_moved, 0) << "dead entries should not move the answer";
  EXPECT_GT(p.moved, 20) << "non-dead edits should change the answer";
}

TEST(Separation, ReusedOracleTellsCoveragesApart) {
  // Two coverages that saw the same number of requests in every block:
  // one request names another page of its block. One phi, and flush sets
  // with equal max flushes on each, asked in alternation of one oracle
  // that keeps its per-block state across all of them. Only the
  // coverages' stamps tell the blocks apart; every answer must be the
  // stateless twin's, bit for bit.
  verify::ReferenceThresholdSeparation twin;
  ThresholdSeparation reused;
  Xoshiro256pp rng(99);
  const int n = 32;
  const Time T = 120;
  int differ = 0;  ///< states where the twin tells the coverages apart
  for (int trial = 0; trial < 200; ++trial) {
    const BlockMap blocks = BlockMap::contiguous(n, 4);
    FlushCoverage cov_a(blocks, 8), cov_b(blocks, 8);
    const auto swapped = static_cast<Time>(1 + rng.below(T));
    for (Time t = 1; t <= T; ++t) {
      const auto p = static_cast<PageId>(rng.below(n));
      cov_a.advance(p, t);
      // A page of p's block other than p (blocks are 4 contiguous pages).
      const auto other = static_cast<PageId>(
          p / 4 * 4 + static_cast<PageId>((p % 4 + 1 + rng.below(3)) % 4));
      cov_b.advance(t == swapped ? other : p, t);
    }
    FlushVars phi(blocks.n_blocks());
    for (int i = 0; i < 150; ++i) {
      const auto b = static_cast<BlockId>(rng.below(blocks.n_blocks()));
      const auto t = static_cast<Time>(1 + rng.below(T));
      phi.increase(b, t, 0.01 * static_cast<double>(1 + rng.below(3)) +
                             1e-3 * rng.uniform());
    }
    FlushSet flushed_a(cov_a), flushed_b(cov_b);
    for (BlockId b = 0; b < blocks.n_blocks(); ++b)
      if (rng.bernoulli(0.3)) {
        const auto t = static_cast<Time>(rng.below(T + 1));
        flushed_a.add_flush(b, t);
        flushed_b.add_flush(b, t);
      }
    const std::pair<FlushSet, FlushSet> sets[] = {
        {FlushSet::empty(cov_a), FlushSet::empty(cov_b)},
        {FlushSet(cov_a), FlushSet(cov_b)},
        {flushed_a, flushed_b}};
    for (std::size_t i = 0; i < std::size(sets); ++i) {
      const std::string where =
          "trial " + std::to_string(trial) + " set " + std::to_string(i);
      const auto want_a = twin.find_violated(sets[i].first, phi);
      const auto want_b = twin.find_violated(sets[i].second, phi);
      expect_same(reused.find_violated(sets[i].first, phi), want_a,
                  where + " first coverage");
      expect_same(reused.find_violated(sets[i].second, phi), want_b,
                  where + " second coverage");
      if (want_a.has_value() != want_b.has_value() ||
          (want_a && (std::bit_cast<std::uint64_t>(want_a->lhs) !=
                          std::bit_cast<std::uint64_t>(want_b->lhs) ||
                      want_a->sprime.g() != want_b->sprime.g())))
        ++differ;
    }
  }
  EXPECT_GT(differ, 20) << "the swapped request should change answers";
}

/// What an oracle sees of one (S, phi): per block the index of its first
/// non-dead entry, and the distinct non-dead phi > 0, descending.
struct NetView {
  std::vector<int> first;
  std::vector<double> values;
};

NetView net_view(const FlushSet& S, const FlushVars& phi) {
  NetView v;
  const int n_blocks = S.coverage().blocks().n_blocks();
  for (BlockId b = 0; b < n_blocks; ++b) {
    int dead = 0;
    for (const FlushVars::Entry& e : phi.entries(b)) {
      if (e.t > S.max_flush(b) && S.g_marginal(b, e.t) > 0) {
        if (e.phi > 0) v.values.push_back(e.phi);
      } else {
        ++dead;  // dead entries are a prefix
      }
    }
    v.first.push_back(dead);
  }
  std::sort(v.values.begin(), v.values.end(), std::greater<>());
  v.values.erase(std::unique(v.values.begin(), v.values.end()),
                 v.values.end());
  return v;
}

/// The twin's thinned net over distinct values, descending (> 40 of them).
std::vector<double> thinned(const std::vector<double>& values) {
  std::vector<double> net;
  double last = std::numeric_limits<double>::infinity();
  for (const double v : values)
    if (v <= last / 1.3) net.push_back(last = v);
  if (net.back() != values.back()) net.push_back(values.back());
  return net;
}

/// One reused ThresholdSeparation and what a test knows of its net: the
/// last state it saw and how many thinned-net points it has stored since
/// it last found its net afresh.
struct NetWalker {
  explicit NetWalker(double tolerance)
      : tolerance(tolerance), oracle(tolerance), twin(tolerance) {}
  double tolerance;
  ThresholdSeparation oracle;
  verify::ReferenceThresholdSeparation twin;
  NetView seen;
  std::size_t stored = 0;
};

TEST(Separation, KeptNetMatchesReferenceAcrossKills) {
  // One phi and flush sets that grow by one flush at a time, so each step
  // kills the non-dead entries at or before the new flush: reused oracles
  // walk S_0, S_1, S_0, S_1, S_2, S_1, S_2, ..., so every step is asked
  // once after a kill and once after the smaller S before it (firsts
  // that move back). Some flushes kill the largest value, a point of
  // every thinned net; where one exists, a flush that leaves exactly 40
  // distinct non-dead values is taken. Each oracle's tolerance puts its
  // first violated S' at a different net point, so later calls read
  // deeper into kept nets than earlier ones. Every answer must be the
  // twin's; a net is kept exactly when only entries were killed, none of
  // them a stored point, and more than 40 distinct values remain; and a
  // reused oracle's points since its net was last found afresh must be
  // as many as a fresh oracle finds, or as it had stored before.
  Xoshiro256pp rng(4242);
  int kept = 0, deeper = 0, stored_kills = 0, forty = 0, moved_back = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const BlockMap blocks = BlockMap::contiguous(64, 4);
    FlushCoverage cov(blocks, 8);
    const Time T = 160;
    for (Time t = 1; t <= T; ++t)
      cov.advance(static_cast<PageId>(rng.below(64)), t);
    FlushVars phi(blocks.n_blocks());
    for (int i = 0; i < 160; ++i)
      phi.raise_to(static_cast<BlockId>(rng.below(16)),
                   static_cast<Time>(1 + rng.below(T)),
                   std::exp(-9.0 * rng.uniform()));
    std::vector<FlushSet> sets = {FlushSet(cov)};
    NetView view = net_view(sets[0], phi);
    if (view.values.size() <= 44) continue;

    // S_{i+1}: S_i plus a flush at a non-dead entry's time.
    for (int step = 0; step < 10 && view.values.size() > 30; ++step) {
      const FlushSet& S = sets.back();
      std::vector<std::pair<BlockId, Time>> options;
      std::pair<BlockId, Time> top{-1, 0}, leaves_forty{-1, 0};
      double top_phi = 0;
      for (BlockId b = 0; b < blocks.n_blocks(); ++b)
        for (const FlushVars::Entry& e : phi.entries(b)) {
          if (!(e.t > S.max_flush(b) && S.g_marginal(b, e.t) > 0)) continue;
          options.emplace_back(b, e.t);
          if (e.phi > top_phi) top = {b, e.t}, top_phi = e.phi;
          if (view.values.size() > 40 && leaves_forty.first < 0) {
            FlushSet next = S;
            next.add_flush(b, e.t);
            if (net_view(next, phi).values.size() == 40)
              leaves_forty = {b, e.t};
          }
        }
      const auto [b, t] = leaves_forty.first >= 0 ? leaves_forty
                          : step % 3 == 1          ? top
                              : options[rng.below(options.size())];
      FlushSet next = S;
      next.add_flush(b, t);
      sets.push_back(next);
      view = net_view(next, phi);
    }

    std::vector<std::size_t> walk = {0};
    for (std::size_t i = 0; i + 1 < sets.size(); ++i)
      walk.insert(walk.end(), {i + 1, i, i + 1});
    // Tolerances just below the slacks of S_0's first net points.
    const NetView start = net_view(sets[0], phi);
    const std::vector<double> net0 = thinned(start.values);
    std::vector<NetWalker> walkers;
    for (const std::size_t i : {0, 1, 3, 6, 12})
      if (i < net0.size()) {
        const FlushSet sp = sprime_at(sets[0], phi, net0[i]);
        const double slack = static_cast<double>(cov.cap() - sp.f()) -
                             constraint_lhs(sp, phi);
        walkers.emplace_back(slack - 1e-6 * std::abs(slack) - 1e-9);
      }

    for (NetWalker& w : walkers) {
      for (std::size_t c = 0; c < walk.size(); ++c) {
        const FlushSet& S = sets[walk[c]];
        const std::string where = "trial " + std::to_string(trial) +
                                  " tolerance " +
                                  std::to_string(w.tolerance) + " call " +
                                  std::to_string(c) + " (S_" +
                                  std::to_string(walk[c]) + ")";
        const NetView now = net_view(S, phi);
        const SeparationCounts before = w.oracle.counts();
        expect_same(w.oracle.find_violated(S, phi),
                    w.twin.find_violated(S, phi), where);
        const SeparationCounts after = w.oracle.counts();
        const long long builds = after.net_builds - before.net_builds;
        const long long kept_now = after.net_kept - before.net_kept;
        const auto points =
            static_cast<std::size_t>(after.net_points - before.net_points);

        // What the kill rule must decide: the stored points are the first
        // of the net over the values last seen (all of them, <= 40).
        std::vector<double> stored = w.seen.values;
        if (stored.size() > 40) {
          stored = thinned(stored);
          stored.resize(w.stored);
        }
        bool stale = c == 0, forward = c > 0, hit = false;
        for (std::size_t b = 0; c > 0 && b < now.first.size(); ++b) {
          const int from = w.seen.first[b], to = now.first[b];
          stale |= from != to;
          forward &= from <= to;
          const auto& list = phi.entries(static_cast<BlockId>(b));
          for (int i = from; i < to; ++i)
            hit |= std::find(stored.begin(), stored.end(),
                             list[static_cast<std::size_t>(i)].phi) !=
                   stored.end();
        }
        const bool keep = stale && forward && !hit && now.values.size() > 40;
        EXPECT_EQ(kept_now, keep ? 1 : 0) << where;
        EXPECT_EQ(builds, stale && !keep ? 1 : 0) << where;
        if (stale && !forward) ++moved_back;
        if (stale && forward && hit) ++stored_kills;
        if (stale && forward && now.values.size() == 40 &&
            w.seen.values.size() > 40)
          ++forty;
        if (keep) {
          ++kept;
          if (points > 0) ++deeper;
        }

        // The points stored since the last fresh net, against a fresh
        // oracle's (0 for a net of every value).
        ThresholdSeparation fresh(w.tolerance);
        (void)fresh.find_violated(S, phi);
        const auto fresh_points =
            static_cast<std::size_t>(fresh.counts().net_points);
        w.stored = builds > 0 ? points : w.stored + points;
        EXPECT_EQ(w.stored, builds > 0 ? fresh_points
                                       : std::max(w.stored - points,
                                                  fresh_points))
            << where;
        w.seen = now;
      }
    }
  }
  EXPECT_GT(kept, 400);
  EXPECT_GT(deeper, 60);
  EXPECT_GT(stored_kills, 500);
  EXPECT_GT(forty, 70);
  EXPECT_GT(moved_back, 500);
}

TEST(Separation, LhsSkipsDominatedEntries) {
  World s;
  for (Time t = 1; t <= 6; ++t) s.cov.advance(static_cast<PageId>(t - 1), t);
  FlushSet S = FlushSet::empty(s.cov);
  S.add_flush(0, 5);
  FlushVars phi(3);
  phi.raise_to(0, 3, 0.7);  // t=3 <= max_flush(0)=5: zero marginal
  EXPECT_DOUBLE_EQ(constraint_lhs(S, phi), 0.0);
  phi.raise_to(0, 6, 0.5);  // beyond the flush: marginal 1 (page 4 of blk0?)
  // block 0 holds pages {0,1}; both requested before 5 -> flushed already.
  // flush at 6 adds nothing new for block 0: wait, pages 0,1 have
  // r = 1,2 < 5, so they are already missing; marginal is 0.
  EXPECT_DOUBLE_EQ(constraint_lhs(S, phi), 0.0);
  phi.raise_to(1, 6, 0.5);  // block 1 pages {2,3}, r = 3,4: g-marginal 2,
  // capped at cap - g = 3 - 2 = 1, so lhs = 1 * 0.5.
  EXPECT_DOUBLE_EQ(constraint_lhs(S, phi), 0.5);
}

}  // namespace
}  // namespace bac
