// Randomized instance generation for differential fuzz-verification.
//
// Every fuzz seed maps deterministically to one block-aware caching
// instance: a block structure (singleton / uniform / skewed / single-block
// shapes), per-block costs (unit, exact-dyadic weighted, or log-uniform),
// a cache size (including the k = beta and k > n edges), and a request
// stream from one of the five SyntheticSource processes (uniform, zipf,
// scan, phased, block-local), plus deliberately thin edges such as T < k
// and T = 0 that one-at-a-time tests historically missed (the phased
// generator's division by zero survived three PRs).
//
// The requests are a drain of a SyntheticSource built over the instance's
// own header, and the GeneratedInstance keeps that source's factory as its
// streaming twin, which the streaming≡materialized oracle replays against
// the materialized run. Every shape and cost model has one.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/instance.hpp"
#include "core/request_source.hpp"

namespace bac::verify {

struct GenOptions {
  int max_pages = 48;
  long long max_T = 320;
  /// Smoke tier for CI: tiny universes so 500 seeds finish in seconds.
  bool tiny = false;
};

struct GeneratedInstance {
  Instance inst;
  std::string descriptor;  ///< human-readable recipe, lands in repro artifacts
  /// A fresh SyntheticSource over `inst`'s blocks and k whose stream is
  /// `inst.requests`: `inst` is its drain. random_instance always sets it;
  /// an instance built any other way (a replayed .bact, a shrunk
  /// candidate) has none and must not run the streaming family.
  std::function<std::unique_ptr<RequestSource>()> streaming_twin;
};

/// Deterministic: the same (seed, options) always yields the same instance.
GeneratedInstance random_instance(std::uint64_t seed,
                                  const GenOptions& options = {});

}  // namespace bac::verify
