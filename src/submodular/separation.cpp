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
    const Active& e = blk.active[static_cast<std::size_t>(i)];
    if (e.phi > run) {
      maxima_.push_back({e.phi, i, e.below});
      run = e.phi;
    }
  }
  const auto same = [](const Maximum& x, const Maximum& y) {
    return x.index == y.index && bits(x.phi) == bits(y.phi);
  };
  const bool changed = !std::equal(maxima_.begin(), maxima_.end(),
                                   blk.maxima.begin(), blk.maxima.end(), same);
  blk.maxima.swap(maxima_);  // the belows can differ when nothing else does
  sum_terms(blk);
  blk.phi_stamp = phi.stamp(b);
  blk.cov_stamp = cov.stamp(b);
  blk.m = m;
  return changed;
}

void ThresholdSeparation::sum_terms(Block& blk) {
  // The suffixes the choices leave are nested, so one right-to-left walk
  // fills level_[w], the phi sum of the walked entries whose count_below
  // is w. A choice with count_below base then has gm = w - base, and its
  // row is sum_{w > base} min(w - base, v) level_[w] = row[v - 2] +
  // tail(v), tail(v) = sum_{w >= base + v} level_[w]. Every sum adds
  // nonnegative values only, each phi through at most (entries + 2 beta)
  // roundings.
  const auto width = static_cast<std::size_t>(beta_);
  const std::size_t rows = blk.maxima.size() + 1;
  blk.sums.assign(rows * width, 0.0);
  if (blk.active.empty()) return;  // one row, all 0
  level_.assign(width + 1, 0.0);
  const auto fill = [&](std::size_t row, int base) {
    double* out = blk.sums.data() + row * width;
    double tail = 0;
    for (std::size_t v = width; v >= 1; --v) {
      if (const std::size_t w = static_cast<std::size_t>(base) + v;
          w <= width)
        tail += level_[w];
      out[v - 1] = tail;  // tail(v), summed into the row below
    }
    for (std::size_t v = 1; v < width; ++v) out[v] += out[v - 1];
  };
  std::size_t i = blk.active.size();
  for (std::size_t r = 0; r < blk.maxima.size(); ++r) {
    const Maximum& mx = blk.maxima[r];
    for (; i > static_cast<std::size_t>(mx.index) + 1; --i)
      level_[static_cast<std::size_t>(blk.active[i - 1].below)] +=
          blk.active[i - 1].phi;
    fill(r + 1, mx.below);
  }
  for (; i > 0; --i)
    level_[static_cast<std::size_t>(blk.active[i - 1].below)] +=
        blk.active[i - 1].phi;
  fill(0, blk.base);
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

void ThresholdSeparation::merge_steps() {
  // One pass over the kept steps, which stay sorted, merging in the fresh
  // ones, sorted first. Equal phi are passed by the same theta, so their
  // order is immaterial.
  fresh_.clear();
  for (const BlockId b : restepped_) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < blk.maxima.size(); ++m)
      fresh_.push_back({blk.maxima[m].phi, b, static_cast<int>(m)});
  }
  std::sort(fresh_.begin(), fresh_.end(),
            [](const Step& x, const Step& y) { return x.phi > y.phi; });
  merged_.clear();
  auto f = fresh_.begin();
  for (const Step& st : steps_) {
    if (restep_[static_cast<std::size_t>(st.b)]) continue;
    for (; f != fresh_.end() && f->phi > st.phi; ++f) merged_.push_back(*f);
    merged_.push_back(st);
  }
  merged_.insert(merged_.end(), f, fresh_.end());
  steps_.swap(merged_);
  for (const BlockId b : restepped_) restep_[static_cast<std::size_t>(b)] = 0;
  restepped_.clear();
}

std::optional<double> ThresholdSeparation::violated_lhs(int cap, int g) {
  ++counts_.scored;
  const double threshold = static_cast<double>(cap - g) - tolerance_;
  // constraint_lhs is one add chain over at most terms_ products, so it
  // is within gamma(terms_) of the real sum T of its terms; the row sums
  // each took at most (entries + 2 beta) roundings and their total one
  // per block more, so sum is within gamma(k) of T, k = terms_ + 2 beta +
  // blocks. Then |chain - sum| <= 2 gamma(k) T <= 2^-51 k sum (1 + tiny);
  // the bound takes twice that, which also covers the roundings of
  // bound and of sum +- bound.
  const auto col = static_cast<std::size_t>(std::min(cap - g, beta_) - 1);
  double sum = 0;
  for (const double* row : rows_) sum += row[col];
  const double k = static_cast<double>(terms_) + 2.0 * beta_ +
                   static_cast<double>(rows_.size());
  const double bound = sum * k * 0x1p-50;
  if (sum - bound >= threshold) return std::nullopt;
  if (!(sum + bound < threshold)) {
    ++counts_.exact;
    const double lhs = chosen_lhs(cap, g);
    if (!(lhs < threshold)) return std::nullopt;
    return lhs;
  }
  return chosen_lhs(cap, g);  // the Violation carries the chain's bits
}

double ThresholdSeparation::chosen_lhs(int cap, int g) const {
  // constraint_lhs's terms in its order (blocks, then time); dead entries
  // and entries at or before a block's chosen flush contribute nothing.
  double lhs = 0;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    const int c = chosen_[b];
    const int base =
        c < 0 ? blk.base : blk.maxima[static_cast<std::size_t>(c)].below;
    for (std::size_t i =
             c < 0 ? 0
                   : static_cast<std::size_t>(
                         blk.maxima[static_cast<std::size_t>(c)].index) + 1;
         i < blk.active.size(); ++i) {
      const Active& e = blk.active[i];
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
  if (blocks_.size() != n_blocks || beta_ != cov.blocks().beta()) {
    // storage only; the keys are stamps
    blocks_.assign(n_blocks, {});
    beta_ = cov.blocks().beta();
    steps_.clear();  // every block's maxima are empty now
    restep_.assign(n_blocks, 0);
    restepped_.clear();
  }

  bool net_stale = false;
  terms_ = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    Block& blk = blocks_[b];
    const auto block = static_cast<BlockId>(b);
    const std::uint64_t phi_stamp = phi.stamp(block);
    const Time m = S.max_flush(block);
    if ((blk.phi_stamp != phi_stamp || blk.cov_stamp != cov.stamp(block) ||
         blk.m != m) &&
        rebuild(blk, block, phi, cov, m) && !restep_[b]) {
      restep_[b] = 1;
      restepped_.push_back(block);
    }
    net_stale |= blk.net_phi_stamp != phi_stamp || blk.net_first != blk.first;
    terms_ += static_cast<long long>(blk.active.size());
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
  if (!restepped_.empty()) merge_steps();

  // S itself first (theta = +infinity).
  chosen_.assign(n_blocks, -1);
  rows_.resize(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) rows_[b] = blocks_[b].sums.data();
  int g = S.g();
  if (const auto l = violated_lhs(cap, g))
    return Violation{S, *l, static_cast<double>(cap - g)};

  const auto width = static_cast<std::size_t>(beta_);
  std::size_t next = 0;
  for (const double theta : thresholds_) {
    if (next == steps_.size() || steps_[next].phi < theta) continue;
    for (; next < steps_.size() && steps_[next].phi >= theta; ++next) {
      const Step& st = steps_[next];
      const auto b = static_cast<std::size_t>(st.b);
      const Block& blk = blocks_[b];
      int& c = chosen_[b];
      g += blk.maxima[static_cast<std::size_t>(st.m)].below -
           (c < 0 ? blk.base : blk.maxima[static_cast<std::size_t>(c)].below);
      c = st.m;
      rows_[b] = blk.sums.data() + (static_cast<std::size_t>(c) + 1) * width;
    }
    // g only grows as theta falls, so no later S' has rhs > 0 either.
    if (g >= cap) return std::nullopt;
    if (const auto l = violated_lhs(cap, g))
      return Violation{sprime(S), *l, static_cast<double>(cap - g)};
  }
  return std::nullopt;
}

FlushSet ThresholdSeparation::sprime(const FlushSet& S) const {
  FlushSet out = S;
  for (std::size_t b = 0; b < blocks_.size(); ++b)
    if (const int c = chosen_[b]; c >= 0)
      out.add_flush(
          static_cast<BlockId>(b),
          blocks_[b]
              .active[static_cast<std::size_t>(
                  blocks_[b].maxima[static_cast<std::size_t>(c)].index)]
              .t);
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
