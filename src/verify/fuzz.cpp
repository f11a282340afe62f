#include "verify/fuzz.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "trace/bact.hpp"
#include "util/json.hpp"
#include "verify/shrink.hpp"

namespace bac::verify {

namespace {

/// Smoke-tier solver caps: 500 seeds must clear CI in well under a minute.
OracleOptions smoke_caps(OracleOptions options) {
  options.sandwich_max_pages = 8;
  options.sandwich_max_T = 24;
  options.mc_trials = 3;
  return options;
}

void write_artifacts(FuzzFailure& failure, const std::string& dir,
                     bool smoke) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string stem = "repro_seed" + std::to_string(failure.seed) + "_" +
                           failure.family;
  failure.bact_path = (fs::path(dir) / (stem + ".bact")).string();
  failure.json_path = (fs::path(dir) / (stem + ".json")).string();
  save_bact(failure.shrunk, failure.bact_path);

  std::ofstream os(failure.json_path);
  if (!os)
    throw std::runtime_error("bacfuzz: cannot write artifact " +
                             failure.json_path);
  os << "{\n  \"seed\": " << failure.seed << ",\n  \"family\": ";
  write_json_string(os, failure.family);
  os << ",\n  \"detail\": ";
  write_json_string(os, failure.detail);
  os << ",\n  \"descriptor\": ";
  write_json_string(os, failure.descriptor);
  os << ",\n  \"shrink_rounds\": " << failure.shrink_rounds
     << ",\n  \"n\": " << failure.shrunk.n_pages()
     << ",\n  \"m\": " << failure.shrunk.blocks.n_blocks()
     << ",\n  \"beta\": " << failure.shrunk.blocks.beta()
     << ",\n  \"k\": " << failure.shrunk.k
     << ",\n  \"T\": " << failure.shrunk.horizon() << ",\n  \"bact\": ";
  write_json_string(os, failure.bact_path);
  os << ",\n  \"repro\": ";
  // The streaming family compares against the generator's streaming twin,
  // which only regenerating from the seed (under the same size tier) can
  // rebuild — a --replay of the saved .bact has no twin and would
  // vacuously pass. Every line carries --seed <S> so the replay's oracle
  // seed (policy seeding, MC trial derivation) matches the failing run.
  write_json_string(
      os, failure.family == "streaming"
              ? "bacfuzz --seeds 1 --seed " + std::to_string(failure.seed) +
                    " --families streaming" + (smoke ? " --smoke" : "")
              : "bacfuzz --replay " + failure.bact_path + " --families " +
                    failure.family + " --seed " +
                    std::to_string(failure.seed));
  os << "\n}\n";
  if (!os.flush())
    throw std::runtime_error("bacfuzz: short write to " + failure.json_path);
}

}  // namespace

std::vector<Violation> replay_instance(const Instance& inst,
                                       const std::vector<std::string>& families,
                                       const OracleOptions& options) {
  GeneratedInstance gi;
  gi.inst = inst;
  gi.descriptor = "replayed instance";
  std::vector<std::string> run =
      families.empty() ? oracle_family_names() : families;
  std::erase(run, "streaming");
  if (run.empty()) return {};
  return check_instance(gi, run, options);
}

FuzzReport run_fuzz(const FuzzConfig& config) {
  FuzzReport report;
  const std::vector<std::string> families =
      config.families.empty() ? oracle_family_names() : config.families;
  const OracleOptions base_oracle =
      config.smoke ? smoke_caps(config.oracle) : config.oracle;
  GenOptions gen = config.gen;
  gen.tiny = gen.tiny || config.smoke;

  obs::Span campaign(config.trace, "fuzz");
  for (int i = 0; i < config.seeds; ++i) {
    if (static_cast<int>(report.failures.size()) >= config.max_failures)
      break;
    if (config.trace && i > 0 && i % 100 == 0) {
      obs::TraceEvent e;
      e.type = "progress";
      e.name = "fuzz";
      e.num("seeds_run", report.seeds_run)
          .num("family_checks", static_cast<double>(report.family_checks))
          .num("violations", static_cast<double>(report.failures.size()));
      config.trace->emit(e);
    }
    const std::uint64_t seed = config.base_seed + static_cast<std::uint64_t>(i);
    const GeneratedInstance gi = random_instance(seed, gen);
    ++report.seeds_run;

    OracleOptions oracle = base_oracle;
    oracle.seed = seed;
    for (const std::string& family : families) {
      ++report.family_checks;
      const std::vector<Violation> violations =
          check_family(family, gi, oracle);
      if (violations.empty()) continue;

      FuzzFailure failure;
      failure.seed = seed;
      failure.family = family;
      failure.detail = violations.front().detail;
      failure.descriptor = gi.descriptor;

      // Shrink while the family still reports any violation. The
      // streaming family compares against the generator twin, which a
      // mutated instance no longer has — its failures ship unshrunk.
      if (family == "streaming") {
        failure.shrunk = gi.inst;
      } else {
        const FailurePredicate still_fails = [&](const Instance& cand) {
          GeneratedInstance shrunk_gi;
          shrunk_gi.inst = cand;
          return !check_family(family, shrunk_gi, oracle).empty();
        };
        ShrinkOutcome outcome = shrink_instance(gi.inst, still_fails);
        failure.shrunk = std::move(outcome.inst);
        failure.shrink_rounds = outcome.rounds;
      }

      if (!config.artifact_dir.empty())
        write_artifacts(failure, config.artifact_dir, config.smoke);
      if (config.trace) {
        obs::TraceEvent e;
        e.type = "violation";
        e.name = family;
        e.num("seed", static_cast<double>(seed))
            .num("shrink_rounds", failure.shrink_rounds)
            .str("detail", failure.detail);
        config.trace->emit(e);
      }
      report.failures.push_back(std::move(failure));
      if (static_cast<int>(report.failures.size()) >= config.max_failures)
        break;
    }
  }

  if (config.metrics) {
    config.metrics->counter("fuzz_seeds_total")
        .inc(static_cast<std::uint64_t>(report.seeds_run));
    config.metrics->counter("fuzz_family_checks_total")
        .inc(static_cast<std::uint64_t>(report.family_checks));
    config.metrics->counter("fuzz_violations_total")
        .inc(report.failures.size());
  }
  campaign.num("seeds_run", report.seeds_run);
  campaign.num("family_checks", static_cast<double>(report.family_checks));
  campaign.num("violations", static_cast<double>(report.failures.size()));
  campaign.end();
  return report;
}

}  // namespace bac::verify
