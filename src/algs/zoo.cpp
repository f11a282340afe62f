#include "algs/zoo.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "algs/policies/classical.hpp"
#include "algs/policies/modern.hpp"
#include "algs/det_online.hpp"
#include "algs/greedy_flush.hpp"
#include "algs/rounding.hpp"
#include "algs/threshold_bicriteria.hpp"

namespace bac {

namespace {

struct NamedFactory {
  const char* name;
  std::unique_ptr<OnlinePolicy> (*make)();
  /// Knobbed construction for `name@<value>` specs; nullptr when the
  /// policy takes no knob. `knob_lo < value < knob_hi` is enforced.
  std::unique_ptr<OnlinePolicy> (*make_knob)(double);
  double knob_lo;
  double knob_hi;
  const char* knob_doc;
};

template <typename P>
std::unique_ptr<OnlinePolicy> make_plain() {
  return std::make_unique<P>();
}

const NamedFactory kRegistry[] = {
    {"lru", make_plain<LruPolicy>, nullptr, 0, 0, nullptr},
    {"fifo", make_plain<FifoPolicy>, nullptr, 0, 0, nullptr},
    {"lfu", make_plain<LfuPolicy>, nullptr, 0, 0, nullptr},
    {"marking", make_plain<MarkingPolicy>, nullptr, 0, 0, nullptr},
    {"greedy_dual", make_plain<GreedyDualPolicy>, nullptr, 0, 0, nullptr},
    {"belady", make_plain<BeladyPolicy>, nullptr, 0, 0, nullptr},
    {"s3fifo", make_plain<S3FifoPolicy>,
     [](double v) {
       return std::unique_ptr<OnlinePolicy>(std::make_unique<S3FifoPolicy>(v));
     },
     0.0, 1.0, "small-queue fraction of k"},
    {"sieve", make_plain<SievePolicy>, nullptr, 0, 0, nullptr},
    {"arc", make_plain<ArcPolicy>, nullptr, 0, 0, nullptr},
    {"block_lru",
     [] {
       return std::unique_ptr<OnlinePolicy>(
           std::make_unique<BlockLruPolicy>(false));
     },
     nullptr, 0, 0, nullptr},
    {"block_lru_prefetch",
     [] {
       return std::unique_ptr<OnlinePolicy>(
           std::make_unique<BlockLruPolicy>(true));
     },
     nullptr, 0, 0, nullptr},
    {"block_s3fifo", make_plain<BlockS3FifoPolicy>,
     [](double v) {
       return std::unique_ptr<OnlinePolicy>(
           std::make_unique<BlockS3FifoPolicy>(v));
     },
     0.0, 1.0, "small-queue fraction of the cache's block slots"},
    {"block_sieve", make_plain<BlockSievePolicy>, nullptr, 0, 0, nullptr},
    {"greedy_flush", make_plain<GreedyFlushPolicy>, nullptr, 0, 0, nullptr},
    {"det_online", make_plain<DetOnlineBlockAware>, nullptr, 0, 0, nullptr},
    {"rand_online", make_plain<RandomizedBlockAware>, nullptr, 0, 0, nullptr},
    {"threshold_fetch",
     [] {
       return std::unique_ptr<OnlinePolicy>(
           std::make_unique<ThresholdBicriteriaPolicy>(
               ThresholdBicriteriaPolicy::Mode::Fetching));
     },
     nullptr, 0, 0, nullptr},
    {"threshold_evict",
     [] {
       return std::unique_ptr<OnlinePolicy>(
           std::make_unique<ThresholdBicriteriaPolicy>(
               ThresholdBicriteriaPolicy::Mode::Eviction));
     },
     nullptr, 0, 0, nullptr},
};

std::string registry_list() {
  std::string known;
  for (const NamedFactory& f : kRegistry) {
    if (!known.empty()) known += ", ";
    known += f.name;
    if (f.make_knob != nullptr) known += "[@<value>]";
  }
  return known;
}

const char kGrammar[] =
    "a spec is <name> or <name>@<value> for knobbed policies "
    "(e.g. s3fifo, s3fifo@0.05)";

/// Plain Levenshtein distance, for did-you-mean suggestions.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// Closest registry name within a small edit radius, or "" if nothing
/// is plausibly a typo of `name`.
std::string nearest_name(const std::string& name) {
  std::string best;
  std::size_t best_d = 3;  // suggest only within distance 2
  for (const NamedFactory& f : kRegistry) {
    const std::size_t d = edit_distance(name, f.name);
    if (d < best_d) {
      best_d = d;
      best = f.name;
    }
  }
  return best;
}

[[noreturn]] void throw_unknown(const std::string& name,
                                const std::string& spec) {
  std::string msg = "make_policy: unknown policy '" + name + "' in spec '" +
                    spec + "'; " + kGrammar + " (known: " + registry_list() +
                    ")";
  const std::string suggestion = nearest_name(name);
  if (!suggestion.empty()) msg += "; did you mean '" + suggestion + "'?";
  throw std::invalid_argument(msg);
}

}  // namespace

std::vector<std::unique_ptr<OnlinePolicy>> make_policy_zoo() {
  std::vector<std::unique_ptr<OnlinePolicy>> zoo;
  for (const NamedFactory& f : kRegistry) zoo.push_back(f.make());
  return zoo;
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const NamedFactory& f : kRegistry) names.emplace_back(f.name);
  return names;
}

std::unique_ptr<OnlinePolicy> make_policy(const std::string& spec) {
  const std::size_t at = spec.find('@');
  const std::string name = spec.substr(0, at);
  const NamedFactory* hit = nullptr;
  for (const NamedFactory& f : kRegistry)
    if (name == f.name) hit = &f;
  if (hit == nullptr) throw_unknown(name, spec);
  if (at == std::string::npos) return hit->make();

  const std::string value = spec.substr(at + 1);
  if (hit->make_knob == nullptr)
    throw std::invalid_argument("make_policy: policy '" + name +
                                "' takes no knob, but spec '" + spec +
                                "' has one; " + kGrammar);
  const char* begin = value.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (value.empty() || end != begin + value.size())
    throw std::invalid_argument("make_policy: malformed knob value '" + value +
                                "' in spec '" + spec + "'; " + kGrammar);
  if (!(v > hit->knob_lo) || !(v < hit->knob_hi))
    throw std::invalid_argument(
        "make_policy: knob value " + value + " out of range for '" + name +
        "' (" + hit->knob_doc + ", must be in (" +
        std::to_string(hit->knob_lo) + ", " + std::to_string(hit->knob_hi) +
        ")); " + kGrammar);
  return hit->make_knob(v);
}

}  // namespace bac
