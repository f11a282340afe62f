// Algorithms 3 + 4: online randomized rounding of the fractional solution
// (Theorem 3.12, Lemma 3.16), packaged as an OnlinePolicy.
//
// Pipeline per request:
//   1. Algorithm 2 produces monotone increments to phi (possibly at past
//      time indices).
//   2. The Lemma 3.14 / Algorithm 4 structure transform converts them into
//      per-block *emissions*: raw mass is accumulated until it reaches
//      1/(4k^2) and then emitted doubled (min(2*mass, 1)); and whenever a
//      page's raw x crosses 1/2 within one request interval, a full
//      eviction (mass 1) of its block is emitted, charged to the raw mass
//      that drove x from 0 to 1/2.
//   3. Algorithm 3 rounds: each emission of mass m evicts the block's
//      positive-x pages with probability min(1, gamma * m), where
//      gamma = log(4 k^2 beta Delta); the requested page is fetched (free
//      under eviction costs); while the cache still overflows, alteration
//      evictions flush blocks that have positive-x cached pages.
//
// A page q has structured x > 0 exactly when its block emitted mass after
// q's last request, so membership tests are O(1) via per-block emission
// timestamps.
//
// With `gamma_override` == 0 the paper's gamma is used. The same class
// doubles as the offline O(log k Delta) approximation of Theorem 3.13:
// running it over the full trace *is* the offline algorithm (the fractional
// solve is monotone, so offline and online runs coincide).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "algs/fractional.hpp"
#include "core/policy.hpp"
#include "util/rng.hpp"

namespace bac {

class RandomizedBlockAware final : public OnlinePolicy {
 public:
  struct Options {
    double gamma_override = 0;   ///< 0: use log(4 k^2 beta Delta)
    bool apply_structure = true; ///< disable to round raw increments (ablation)
  };

  RandomizedBlockAware() : RandomizedBlockAware(Options{}) {}
  explicit RandomizedBlockAware(Options options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "BA-Rand(Alg2+3)"; }
  void reset(const Instance& inst) override;
  void seed(std::uint64_t s) override { rng_ = Xoshiro256pp(s); }
  void on_request(Time t, PageId p, CacheOps& cache) override;
  [[nodiscard]] bool randomized() const override { return true; }
  [[nodiscard]] std::unique_ptr<OnlinePolicy> clone() const override {
    // Run state is not copyable (the fractional substrate owns its
    // separation oracle); a fresh policy with the same configuration is
    // equivalent since clones are reset and reseeded before use.
    return std::make_unique<RandomizedBlockAware>(options_);
  }

  /// Underlying fractional (Algorithm 2) eviction cost.
  [[nodiscard]] double fractional_cost() const {
    return frac_->fractional_cost();
  }
  /// Cost of the structured solution (the one actually rounded).
  [[nodiscard]] double structured_cost() const noexcept {
    return structured_cost_;
  }
  [[nodiscard]] double dual_objective() const {
    return frac_->dual_objective();
  }
  /// Evictions forced by the alteration loop (lines 4-5 of Algorithm 3).
  [[nodiscard]] long long alterations() const noexcept { return alterations_; }
  /// Alterations that found no positive-x block and fell back to evicting
  /// an arbitrary page (0 in a healthy run).
  [[nodiscard]] long long fallback_alterations() const noexcept {
    return fallback_alterations_;
  }
  [[nodiscard]] double gamma() const noexcept { return gamma_; }
  /// Algorithm 2's decision counts (separation calls, S' scored and those
  /// the exact chain decided, saturation bisections and their LHS
  /// evaluations) and the two alteration counts; all are deterministic
  /// per seed.
  void export_metrics(obs::MetricRegistry& registry) const override;

 private:
  Options options_;
  std::optional<FractionalBlockAware> frac_;
  const BlockMap* blocks_ = nullptr;
  int k_ = 0;
  double gamma_ = 0;
  double emit_threshold_ = 0;  // 1 / (4 k^2)
  Xoshiro256pp rng_{1};

  std::vector<double> pending_;     // per block: raw mass not yet emitted
  std::vector<Time> last_emit_;     // per block: last emission step (0 none)
  std::vector<char> half_charged_;  // per page: full-evict already charged
  // Per-request buffers of on_request, kept for their capacity.
  std::vector<std::pair<BlockId, double>> emissions_;  // (block, mass)
  std::vector<BlockId> touched_;
  double structured_cost_ = 0;
  long long alterations_ = 0;
  long long fallback_alterations_ = 0;

  /// q's last request is the fractional substrate's r(q), which its step
  /// has already advanced to the current request.
  [[nodiscard]] bool x_positive(PageId q, Time now) const {
    const Time e = last_emit_[static_cast<std::size_t>(
        blocks_->block_of(q))];
    return e > frac_->coverage().last_request(q) && e <= now;
  }
  /// Evict every cached page of b with positive structured x (never the
  /// page requested at `now`, whose x is 0). Returns #evicted.
  int evict_positive(BlockId b, Time now, CacheOps& cache);
};

}  // namespace bac
