// The paper's tight constructions, as executable instance builders.
//
//  - Claim 2.1 instances: optimal fetching and eviction costs differ by a
//    factor beta, in either direction. Builders also return the *intended*
//    optimal schedule from the proof so benches can score it exactly.
//  - Appendix A.2 instance: the naive LP (A.1) has integrality gap
//    Omega(beta) (two blocks, k = 2*beta - 1).
//  - The classic (k+1)-page cyclic nemesis.
//  - A BGM21 Theorem 4.3-style adaptive adversary for (h, k) block-aware
//    caching with fetching costs: always request a page missing from the
//    online policy's cache, preferring blocks with many missing pages so an
//    offline h-page cache can batch its fetches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/schedule.hpp"
#include "util/rng.hpp"

namespace bac {

struct BuiltAdversarial {
  Instance instance;
  /// The optimal policy from the Claim 2.1 proof, scored by
  /// replay_schedule().
  Schedule intended_schedule;
};

/// Claim 2.1, direction "OPT_fetch ~ beta * OPT_evict is impossible;
/// here OPT_evict is ~beta times OPT_fetch... " — concretely this instance
/// has eviction cost ~beta^2 and fetching cost ~beta for the intended
/// schedule: 2*beta^2 pages in 2*beta blocks of size beta, k = beta^2.
/// After a warm-up requesting all P pages, round i = 1..beta requests the
/// first (beta - i) pages of each P-block and all pages of the first i
/// Q-blocks, `repeats` times. The intended schedule evicts one page from
/// each P-block per round (beta block-eviction events) and fetches one
/// whole Q-block per round (one block-fetch event).
BuiltAdversarial claim21_fetch_cheap(int beta, int repeats);

/// Claim 2.1, complementary direction: fetching cost ~beta^2, eviction
/// cost ~beta. Round i requests the last i pages of each P-block and all
/// pages of the last (beta - i) Q-blocks; the intended schedule fetches one
/// page per P-block per round and evicts one whole Q-block per round.
BuiltAdversarial claim21_evict_cheap(int beta, int repeats);

/// Appendix A.2 integrality-gap instance: n = 2*beta pages in two blocks,
/// k = 2*beta - 1; each of `rounds` rounds requests all of B1 then all of
/// B2. Integer OPT pays >= 1 per round in either model; the fractional LP
/// pays 2/beta per round.
Instance gap_instance(int beta, int rounds);

/// Classic paging nemesis: cyclic requests over k+1 pages grouped into
/// blocks of `block_size`. Stays for the tests: on it they check that LRU
/// pays k per round while marking and fractional paging pay O(log k).
Instance cyclic_nemesis(int k, int block_size, Time T);

/// Adaptive adversary for (h, k) fetching-cost lower bounds (BGM21 Thm 4.3
/// shape). Simulates `policy` with cache size k over a universe of
/// n = k + (block_size - 1) * (h - 1) + 1 pages in blocks of `block_size`;
/// at each step requests a page absent from the policy's cache, chosen from
/// the block with the most absent pages (ties toward lower ids, so the
/// sequence is deterministic for deterministic policies). Each request is
/// a step of the step kernel, so a policy that fails its audit throws
/// std::runtime_error as under simulate().
struct AdversaryResult {
  Instance instance;      ///< the generated request sequence
  Cost online_fetch = 0;  ///< the policy's batched fetching cost
  Cost online_evict = 0;  ///< the policy's batched eviction cost
};
AdversaryResult run_adaptive_adversary(OnlinePolicy& policy, int k,
                                       int block_size, int h, Time T,
                                       std::uint64_t seed = 1);

/// The deterministic lower bound of BGM21 Theorem 4.3 for reference:
/// (k + (B-1)(h-1)) / (k - h + 1), valid for h <= k - B + 1.
double bgm21_lower_bound(int k, int block_size, int h);

}  // namespace bac
