// The differential fuzz driver: generate -> check -> shrink -> reproduce.
//
// Each seed deterministically generates one randomized instance
// (verify/gen.hpp), runs the selected oracle families over it
// (verify/oracles.hpp), and — on any violation — greedily shrinks the
// instance while the violation persists (verify/shrink.hpp), then emits a
// self-contained repro artifact: the shrunken instance as a `.bact` trace
// plus a JSON descriptor carrying the seed, family, violation detail, and
// the exact CLI line that replays it (`bacfuzz --replay <file>`).
//
// tools/bacfuzz is a thin CLI over run_fuzz(); tests drive it directly,
// including with deliberately injected buggy policies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "verify/oracles.hpp"

namespace bac::verify {

struct FuzzConfig {
  std::uint64_t base_seed = 1;
  int seeds = 100;
  /// CI smoke tier: tiny instances and tight solver caps so hundreds of
  /// seeds finish within a bounded minute.
  bool smoke = false;
  std::vector<std::string> families;  ///< empty = all oracle families
  std::string artifact_dir;           ///< "" = do not write repro artifacts
  int max_failures = 1;               ///< stop fuzzing after this many
  OracleOptions oracle;               ///< caps + optional policy injection
  GenOptions gen;                     ///< instance size envelope
  /// Optional observability hooks (nullptr = disabled): a campaign span
  /// with progress events every 100 seeds and one `violation` event per
  /// failure, plus fuzz_seeds_total / fuzz_family_checks_total /
  /// fuzz_violations_total counters.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceWriter* trace = nullptr;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string family;
  std::string detail;       ///< first violation's message
  std::string descriptor;   ///< generator recipe of the original instance
  Instance shrunk;          ///< smallest instance still failing
  int shrink_rounds = 0;
  std::string bact_path;    ///< repro artifacts ("" when not written)
  std::string json_path;
};

struct FuzzReport {
  int seeds_run = 0;
  long long family_checks = 0;  ///< (seed, family) pairs evaluated
  std::vector<FuzzFailure> failures;
};

/// Run the campaign. Violations are collected (up to max_failures), never
/// thrown; infrastructure errors (unwritable artifact dir) throw.
FuzzReport run_fuzz(const FuzzConfig& config);

/// Re-check a previously saved repro instance against the families
/// (empty = all). A saved instance has no generator, hence no streaming
/// twin, so the streaming family is skipped. Used by `bacfuzz --replay`.
std::vector<Violation> replay_instance(const Instance& inst,
                                       const std::vector<std::string>& families,
                                       const OracleOptions& options);

}  // namespace bac::verify
