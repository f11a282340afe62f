#include "submodular/separation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

namespace bac {

namespace {

/// Iterator to the first entry of `list` with time strictly greater than m
/// (entries are sorted by time; dead entries are skipped wholesale).
auto first_live(const std::vector<FlushVars::Entry>& list, Time m) {
  return std::upper_bound(
      list.begin(), list.end(), m,
      [](Time t, const FlushVars::Entry& e) { return t < e.t; });
}

/// The bits of v >= 0, which order such values as the values do, at
/// integer speed (no floating-point compare latency in a min/max chain).
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The octave of v >= 0: its biased binary exponent (subnormals and 0
/// share octave 0).
int octave(double v) { return static_cast<int>(bits(v) >> 52); }

}  // namespace

double constraint_lhs(const FlushSet& sprime, const FlushVars& phi) {
  const FlushCoverage& cov = sprime.coverage();
  const int cap = cov.cap();
  const int g = sprime.g();
  if (g >= cap) return 0.0;  // rhs is 0 too; constraint trivially holds
  double lhs = 0;
  for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b) {
    const Time m = sprime.max_flush(b);
    const auto& list = phi.entries(b);
    for (auto it = first_live(list, m); it != list.end(); ++it) {
      if (it->phi <= 0) continue;
      const int gm = sprime.g_marginal(b, it->t);
      if (gm <= 0) continue;
      lhs += static_cast<double>(std::min(gm, cap - g)) * it->phi;
    }
  }
  return lhs;
}

bool ThresholdSeparation::rebuild(Block& blk, BlockId b, const FlushVars& phi,
                                  const FlushCoverage& cov, Time m) {
  // The block's non-dead entries, whose count_below comes from one walk.
  const auto& list = phi.entries(b);
  const std::span<const Time> last = cov.sorted_last(b);
  const auto base = static_cast<std::size_t>(
      std::lower_bound(last.begin(), last.end(), m) - last.begin());
  // Dead: t <= m, or no page's last request in [m, t), i.e. t <= last[base]
  // (which is >= m).
  const auto first =
      base == last.size()
          ? list.end()
          : std::upper_bound(list.begin(), list.end(), last[base],
                             [](Time t, const FlushVars::Entry& e) {
                               return t < e.t;
                             });
  blk.base = static_cast<int>(base);
  blk.first = static_cast<int>(first - list.begin());
  blk.active.clear();
  std::size_t below = base;
  for (auto it = first; it != list.end(); ++it) {
    while (below < last.size() && last[below] < it->t) ++below;
    if (it->phi <= 0) continue;  // as constraint_lhs skips it
    blk.active.push_back({it->phi, it->t, static_cast<int>(below)});
  }

  // Right-to-left maxima, in the order theta passes them.
  maxima_.clear();
  double run = 0;
  for (int i = static_cast<int>(blk.active.size()) - 1; i >= 0; --i) {
    const double v = blk.active[static_cast<std::size_t>(i)].phi;
    if (v > run) {
      maxima_.push_back({v, i});
      run = v;
    }
  }
  const auto same = [](const Maximum& x, const Maximum& y) {
    return x.index == y.index && bits(x.phi) == bits(y.phi);
  };
  const bool changed = !std::equal(maxima_.begin(), maxima_.end(),
                                   blk.maxima.begin(), blk.maxima.end(), same);
  if (changed) blk.maxima.swap(maxima_);
  blk.phi_stamp = phi.stamp(b);
  blk.cov_stamp = cov.stamp(b);
  blk.m = m;
  return changed;
}

void ThresholdSeparation::build_net() {
  active_phi_.clear();
  for (const Block& blk : blocks_)
    for (const Active& e : blk.active)
      if (e.phi > 0) active_phi_.push_back(e.phi);  // not NaN

  // Every distinct non-dead phi, descending, or -- past 40 of them -- the
  // largest, then repeatedly the largest <= last / 1.3, then the
  // smallest.
  if (!collect_distinct()) return;
  bucket_active();
  double last = octave_below_.back();
  thresholds_.clear();
  for (;;) {
    thresholds_.push_back(last);
    const double x = last / 1.3;
    // A subnormal last can round back to itself; then the next point is
    // the largest value < last.
    last = predecessor(x < last ? x : std::nextafter(last, 0.0));
    if (last <= 0) break;
  }
  if (thresholds_.back() != active_min_) thresholds_.push_back(active_min_);
}

void ThresholdSeparation::bucket_active() {
  octave_phi_.resize(active_phi_.size());
  std::uint64_t lo = bits(active_phi_.front());
  std::uint64_t hi = lo;
  for (const double v : active_phi_) {
    lo = std::min(lo, bits(v));
    hi = std::max(hi, bits(v));
  }
  active_min_ = std::bit_cast<double>(lo);
  lo_octave_ = octave(active_min_);
  // A counting sort by octave: count, prefix-sum each octave's end, then
  // place every value just below its octave's end, which leaves
  // octave_begin_[i] at octave i's start.
  const auto n = static_cast<std::size_t>(
      octave(std::bit_cast<double>(hi)) - lo_octave_ + 1);
  octave_begin_.assign(n + 1, 0);
  for (const double v : active_phi_)
    ++octave_begin_[static_cast<std::size_t>(octave(v) - lo_octave_)];
  for (std::size_t i = 1; i <= n; ++i)
    octave_begin_[i] += octave_begin_[i - 1];
  for (const double v : active_phi_)
    octave_phi_[static_cast<std::size_t>(--octave_begin_[
        static_cast<std::size_t>(octave(v) - lo_octave_)])] = v;
  octave_below_.resize(n + 1);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < n; ++i) {
    octave_below_[i] = std::bit_cast<double>(below);
    for (int j = octave_begin_[i]; j < octave_begin_[i + 1]; ++j)
      below = std::max(below, bits(octave_phi_[static_cast<std::size_t>(j)]));
  }
  octave_below_[n] = std::bit_cast<double>(hi);
}

bool ThresholdSeparation::collect_distinct() {
  // Inserts each value into the descending thresholds_ unless it is there
  // already, stopping once that makes 41 values.
  thresholds_.clear();
  for (const double v : active_phi_) {
    const auto it = std::lower_bound(thresholds_.begin(), thresholds_.end(),
                                     v, std::greater<>());
    if (it == thresholds_.end() || *it != v) thresholds_.insert(it, v);
    if (thresholds_.size() > 40) return true;
  }
  return false;
}

double ThresholdSeparation::predecessor(double x) const {
  // Lower octaves hold only values < x, higher ones only values > x.
  const int i = octave(x) - lo_octave_;
  const int n = static_cast<int>(octave_below_.size()) - 1;
  if (i >= n) return octave_below_.back();
  if (i < 0) return 0;
  const auto o = static_cast<std::size_t>(i);
  std::uint64_t best = 0;
  for (int j = octave_begin_[o]; j < octave_begin_[o + 1]; ++j) {
    const std::uint64_t v = bits(octave_phi_[static_cast<std::size_t>(j)]);
    best = std::max(best, v <= bits(x) ? v : 0);
  }
  return best > 0 ? std::bit_cast<double>(best) : octave_below_[o];
}

void ThresholdSeparation::sort_steps() {
  steps_.clear();
  for (std::size_t b = 0; b < blocks_.size(); ++b)
    for (const Maximum& mx : blocks_[b].maxima)
      steps_.push_back({mx.phi, mx.index, static_cast<BlockId>(b)});
  // Equal phi are passed by the same theta, so their order is immaterial.
  std::sort(steps_.begin(), steps_.end(),
            [](const Step& x, const Step& y) { return x.phi > y.phi; });
}

double ThresholdSeparation::chosen_lhs(int cap, int g) const {
  // constraint_lhs's terms in its order (blocks, then time); dead entries
  // and entries at or before a block's chosen flush contribute nothing.
  double lhs = 0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const std::vector<Active>& active = blocks_[b].active;
    const int c = chosen_[b];
    const int base = c < 0 ? blocks_[b].base
                           : active[static_cast<std::size_t>(c)].below;
    for (std::size_t i = c < 0 ? 0 : static_cast<std::size_t>(c) + 1;
         i < active.size(); ++i) {
      const Active& e = active[i];
      const int gm = e.below - base;
      if (gm <= 0) continue;
      lhs += static_cast<double>(std::min(gm, cap - g)) * e.phi;
    }
  }
  return lhs;
}

std::optional<Violation> ThresholdSeparation::find_violated(
    const FlushSet& S, const FlushVars& phi) {
  const FlushCoverage& cov = S.coverage();
  const int cap = cov.cap();
  // Every S' >= S has g(S') >= g(S), so rhs <= 0 for all of them too.
  if (S.g() >= cap) return std::nullopt;
  const auto n_blocks = static_cast<std::size_t>(cov.blocks().n_blocks());
  if (blocks_.size() != n_blocks) {  // storage only; the keys are stamps
    blocks_.assign(n_blocks, {});
    steps_.clear();  // every block's maxima are empty now
  }

  bool net_stale = false;
  bool steps_stale = false;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    Block& blk = blocks_[b];
    const auto block = static_cast<BlockId>(b);
    const std::uint64_t phi_stamp = phi.stamp(block);
    const Time m = S.max_flush(block);
    if (blk.phi_stamp != phi_stamp || blk.cov_stamp != cov.stamp(block) ||
        blk.m != m)
      steps_stale |= rebuild(blk, block, phi, cov, m);
    net_stale |= blk.net_phi_stamp != phi_stamp || blk.net_first != blk.first;
  }
  if (net_stale) {
    build_net();
    for (Block& blk : blocks_) {
      blk.net_phi_stamp = blk.phi_stamp;
      blk.net_first = blk.first;
    }
  }
  // Before S is checked: that check may answer, and the next call
  // rebuilds only the blocks whose keys change again.
  if (steps_stale) sort_steps();

  // S itself first (theta = +infinity).
  chosen_.assign(n_blocks, -1);
  int g = S.g();
  {
    const double rhs = static_cast<double>(cap - g);
    const double l = chosen_lhs(cap, g);
    if (l < rhs - tolerance_) return Violation{S, l, rhs};
  }

  std::size_t next = 0;
  for (const double theta : thresholds_) {
    if (next == steps_.size() || steps_[next].phi < theta) continue;
    for (; next < steps_.size() && steps_[next].phi >= theta; ++next) {
      const Step& st = steps_[next];
      const Block& blk = blocks_[static_cast<std::size_t>(st.b)];
      int& c = chosen_[static_cast<std::size_t>(st.b)];
      g += blk.active[static_cast<std::size_t>(st.index)].below -
           (c < 0 ? blk.base : blk.active[static_cast<std::size_t>(c)].below);
      c = st.index;
    }
    // g only grows as theta falls, so no later S' has rhs > 0 either.
    if (g >= cap) return std::nullopt;
    const double rhs = static_cast<double>(cap - g);
    const double l = chosen_lhs(cap, g);
    if (l < rhs - tolerance_) return Violation{sprime(S), l, rhs};
  }
  return std::nullopt;
}

FlushSet ThresholdSeparation::sprime(const FlushSet& S) const {
  FlushSet out = S;
  for (std::size_t b = 0; b < blocks_.size(); ++b)
    if (const int c = chosen_[b]; c >= 0)
      out.add_flush(static_cast<BlockId>(b),
                    blocks_[b].active[static_cast<std::size_t>(c)].t);
  return out;
}

std::optional<Violation> DpSeparation::find_violated(const FlushSet& S,
                                                     const FlushVars& phi) {
  const FlushCoverage& cov = S.coverage();
  const int n_blocks = cov.blocks().n_blocks();
  const int cap = cov.cap();
  if (cap <= 0) return std::nullopt;

  // Per-block candidate max flush times (>= the block's time in S).
  std::vector<std::vector<Time>> candidates(
      static_cast<std::size_t>(n_blocks));
  for (BlockId b = 0; b < n_blocks; ++b) {
    auto& cand = candidates[static_cast<std::size_t>(b)];
    const Time m = S.max_flush(b);
    cand.push_back(m);
    for (const FlushVars::Entry& e : phi.entries(b))
      if (e.t > m && e.t <= cov.now()) cand.push_back(e.t);
    for (Time t : cov.alive_times(b))
      if (t > m && t <= cov.now()) cand.push_back(t);
    if (cov.now() > m) cand.push_back(cov.now());
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }

  const double kInf = std::numeric_limits<double>::infinity();
  std::optional<Violation> worst;

  // G is the g-mass *added* to S by the extra flushes; g(S') = g(S) + G.
  for (int G = 0; S.g() + G < cap; ++G) {
    const int capg = cap - (S.g() + G);  // marginal cap and the RHS
    // dp[g] = minimal LHS using a prefix of blocks with total g-level g;
    // choice[b][g] records the winning candidate index for reconstruction.
    std::vector<double> dp(static_cast<std::size_t>(G) + 1, kInf);
    dp[0] = 0;
    std::vector<std::vector<std::int16_t>> choice(
        static_cast<std::size_t>(n_blocks),
        std::vector<std::int16_t>(static_cast<std::size_t>(G) + 1, -1));

    for (BlockId b = 0; b < n_blocks; ++b) {
      const auto& cand = candidates[static_cast<std::size_t>(b)];
      const Time m = S.max_flush(b);
      const int base = (m == kNeverRequested) ? 0 : cov.count_below(b, m);
      // Precompute (g_b, L_b) per candidate.
      std::vector<std::pair<int, double>> options;
      options.reserve(cand.size());
      for (Time mb : cand) {
        const int cnt =
            (mb == kNeverRequested) ? 0 : cov.count_below(b, mb);
        const int gb = cnt - base;
        double lb = 0;
        for (const FlushVars::Entry& e : phi.entries(b)) {
          if (e.t <= mb || e.phi <= 0 || e.t > cov.now()) continue;
          const int gm = cov.count_below(b, e.t) - cnt;
          if (gm > 0) lb += static_cast<double>(std::min(gm, capg)) * e.phi;
        }
        options.emplace_back(gb, lb);
      }
      std::vector<double> next(static_cast<std::size_t>(G) + 1, kInf);
      for (int g = 0; g <= G; ++g) {
        if (dp[static_cast<std::size_t>(g)] == kInf) continue;
        for (std::size_t ci = 0; ci < options.size(); ++ci) {
          const auto& [gb, lb] = options[ci];
          const int g2 = g + gb;
          if (g2 > G) continue;
          const double v = dp[static_cast<std::size_t>(g)] + lb;
          if (v < next[static_cast<std::size_t>(g2)]) {
            next[static_cast<std::size_t>(g2)] = v;
            choice[static_cast<std::size_t>(b)]
                  [static_cast<std::size_t>(g2)] =
                static_cast<std::int16_t>(ci);
          }
        }
      }
      dp = std::move(next);
    }

    const double lhs = dp[static_cast<std::size_t>(G)];
    const double rhs = static_cast<double>(capg);
    if (lhs < rhs - tolerance_ &&
        (!worst || rhs - lhs > worst->amount())) {
      // Reconstruct the witness S'.
      FlushSet sprime = S;
      int g = G;
      for (BlockId b = n_blocks - 1; b >= 0; --b) {
        const auto ci =
            choice[static_cast<std::size_t>(b)][static_cast<std::size_t>(g)];
        if (ci < 0) continue;  // shouldn't happen when dp[G] < inf
        const Time mb =
            candidates[static_cast<std::size_t>(b)][static_cast<std::size_t>(ci)];
        const int base = (S.max_flush(b) == kNeverRequested)
                             ? 0
                             : cov.count_below(b, S.max_flush(b));
        const int gb =
            ((mb == kNeverRequested) ? 0 : cov.count_below(b, mb)) - base;
        if (mb > S.max_flush(b)) sprime.add_flush(b, mb);
        g -= gb;
      }
      worst = Violation{sprime, lhs, rhs};
    }
  }
  return worst;
}

}  // namespace bac
