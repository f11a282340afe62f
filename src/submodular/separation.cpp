#include "submodular/separation.hpp"

#include <algorithm>
#include <array>
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

/// Whether values holds more than 40 distinct values, counted until 41;
/// if not, all of them, descending, into out.
bool distinct_descending(const std::vector<double>& values,
                         std::vector<double>& out) {
  // Open addressing on the bits over 128 slots, at most 41 of them used; 0
  // marks a free slot, as the values are > 0.
  std::array<std::uint64_t, 128> seen{};
  int count = 0;
  for (const double v : values) {
    const std::uint64_t b = bits(v);
    std::size_t i = (b * 0x9E3779B97F4A7C15u) >> 57;
    while (seen[i] != 0 && seen[i] != b) i = (i + 1) % seen.size();
    if (seen[i] == 0) {
      seen[i] = b;
      if (++count > 40) return true;
    }
  }
  out.clear();
  for (const std::uint64_t b : seen)
    if (b != 0) out.push_back(std::bit_cast<double>(b));
  std::sort(out.begin(), out.end(), std::greater<>());
  return false;
}

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

void ThresholdSeparation::refresh_net(const FlushVars& phi, bool kills_only) {
  // Kills keep the stored points if no killed value is one of them: each
  // point is the largest value <= the previous one / 1.3 (the first the
  // largest of all), and removing other values leaves every such maximum.
  bool keep = kills_only;
  for (std::size_t b = 0; keep && b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    const auto& list = phi.entries(static_cast<BlockId>(b));
    for (int i = blk.net_first; keep && i < blk.first; ++i) {
      const double v = list[static_cast<std::size_t>(i)].phi;
      keep = !(v > 0) || std::find(thresholds_.begin(), thresholds_.end(),
                                   v) == thresholds_.end();
    }
  }
  active_phi_.clear();
  std::uint64_t top = 0;
  for (const Block& blk : blocks_)
    for (const Active& e : blk.active)
      if (e.phi > 0) {  // not NaN
        active_phi_.push_back(e.phi);
        top = std::max(top, bits(e.phi));
      }

  if (!distinct_descending(active_phi_, distinct_)) {
    thresholds_.swap(distinct_);  // at most 40: the net is every value
    ++counts_.net_builds;
  } else if (keep) {
    ++counts_.net_kept;
  } else {
    thresholds_.assign(1, std::bit_cast<double>(top));
    ++counts_.net_builds;
    ++counts_.net_points;
  }
  for (Block& blk : blocks_) {
    blk.net_phi_stamp = blk.phi_stamp;
    blk.net_first = blk.first;
  }
}

bool ThresholdSeparation::extend_net() {
  const double last = thresholds_.back();
  const double x = last / 1.3;
  // A subnormal last can round back to itself; then the next point is the
  // largest value < last.
  const std::uint64_t cut = bits(x < last ? x : std::nextafter(last, 0.0));
  std::uint64_t next = 0;
  for (const double v : active_phi_) {
    const std::uint64_t b = bits(v);
    next = std::max(next, b <= cut ? b : 0);  // conditional moves, no branch
  }
  if (next == 0) {  // last was the last such point: then the smallest
    next = bits(last);
    for (const double v : active_phi_) next = std::min(next, bits(v));
    if (next == bits(last)) return false;
  }
  thresholds_.push_back(std::bit_cast<double>(next));
  ++counts_.net_points;
  return true;
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

  // The net is stale when some block's phi stamp or first non-dead entry
  // moved; when only firsts moved, and forward, entries were only killed.
  bool net_stale = false;
  bool kills_only = true;
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
    if (blk.net_phi_stamp != phi_stamp || blk.net_first != blk.first) {
      net_stale = true;
      kills_only &= blk.net_phi_stamp == phi_stamp && blk.net_first < blk.first;
    }
    terms_ += static_cast<long long>(blk.active.size());
  }
  if (net_stale) refresh_net(phi, kills_only);
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

  // A theta that passes no step gives the S' just scored, so once every
  // step is passed no later theta scores anything.
  const auto width = static_cast<std::size_t>(beta_);
  std::size_t next = 0;
  for (std::size_t i = 0; next < steps_.size(); ++i) {
    // Steps hold non-dead phi > 0, so the net is not empty here.
    if (i == thresholds_.size() && !extend_net()) break;
    const double theta = thresholds_[i];
    if (steps_[next].phi < theta) continue;
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
