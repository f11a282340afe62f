// bacfuzz: differential fuzz-verification driver.
//
// Generates randomized block-aware caching instances (all block shapes,
// cost distributions, trace generators, and edge shapes like k = beta or
// T < k), replays every feasible policy over each, and checks the oracle
// battery: cost-sandwich (lower bounds <= OPT <= feasible runs, proven
// ratios), Section-2 cost-model identities, streaming == materialized
// simulate(), recorded net schedule -> replay exactness, policy twins,
// Monte-Carlo serial == parallel, and 1-vs-N-thread ConcurrentCache cost
// equality.
//
// On a violation the failing instance is shrunk (halve T, drop blocks,
// shrink k) while the violation persists, and a self-contained repro is
// written: <artifacts>/repro_seed<S>_<family>.bact + .json (the JSON
// carries the exact `bacfuzz --replay ...` line).
//
//   bacfuzz --seeds 500 --smoke --artifacts fuzz-artifacts --json fuzz.json
//   bacfuzz --replay fuzz-artifacts/repro_seed42_cost_model.bact
//   bacfuzz --golden tests/golden        # regenerate the pinned corpus
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "trace/bact.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "verify/fuzz.hpp"
#include "verify/golden.hpp"
#include "verify/reference_policies.hpp"

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--seeds <n>] [--seed <base>] [--smoke]\n"
      "          [--families <f1,f2,..>] [--artifacts <dir>]\n"
      "          [--max-failures <n>] [--threads <n>] [--json [path]]\n"
      "          [--metrics <out.json|out.prom>] [--trace <out.jsonl>]\n"
      "          [--replay <repro.bact>] [--golden <dir>] [--list-families]\n"
      "\n"
      "  --seeds         fuzz seeds to run (default 100)\n"
      "  --smoke         CI tier: tiny instances, tight solver caps\n"
      "  --families      oracle families (default: all; see "
      "--list-families)\n"
      "  --artifacts     write shrunken repro .bact+.json on failure\n"
      "  --metrics       write campaign counters at exit (obs JSON, or\n"
      "                  Prometheus text when the path ends in .prom)\n"
      "  --trace         stream campaign/progress/violation JSONL events\n"
      "  --replay        re-check a saved repro instead of fuzzing\n"
      "  --golden        write the pinned golden corpus and exit\n",
      argv0);
}

int write_report(const std::string& path, const bac::verify::FuzzConfig& config,
                 const bac::verify::FuzzReport& report, double wall_ms) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "bacfuzz: cannot write %s\n", path.c_str());
    return 1;
  }
  os.precision(17);
  os << "{\n  \"bench\": \"bacfuzz\",\n  \"seed\": " << config.base_seed
     << ",\n  \"seeds\": " << config.seeds << ",\n  \"smoke\": "
     << (config.smoke ? "true" : "false") << ",\n  \"families\": [";
  const std::vector<std::string> families =
      config.families.empty() ? bac::verify::oracle_family_names()
                              : config.families;
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (i) os << ", ";
    bac::write_json_string(os, families[i]);
  }
  os << "],\n  \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const auto& f = report.failures[i];
    os << (i ? ",\n    {" : "\n    {") << "\"seed\": " << f.seed
       << ", \"family\": ";
    bac::write_json_string(os, f.family);
    os << ", \"detail\": ";
    bac::write_json_string(os, f.detail);
    os << ", \"n\": " << f.shrunk.n_pages() << ", \"k\": " << f.shrunk.k
       << ", \"T\": " << f.shrunk.horizon() << ", \"bact\": ";
    bac::write_json_string(os, f.bact_path);
    os << "}";
  }
  os << (report.failures.empty() ? "]" : "\n  ]")
     << ",\n  \"aggregate\": {\"seeds_run\": " << report.seeds_run
     << ", \"family_checks\": " << report.family_checks
     << ", \"violations\": " << report.failures.size()
     // The production<->frozen-twin pairs the policy_equivalence family
     // replays per seed; CI pins this so a twin silently dropping from
     // the registry cannot shrink coverage unnoticed.
     << ", \"policy_twins\": " << bac::verify::reference_policy_twins().size()
     << ", \"wall_ms\": ";
  bac::write_json_number(os, wall_ms);
  os << "}\n}\n";
  if (!os.flush()) {
    std::fprintf(stderr, "bacfuzz: short write to %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  bac::verify::FuzzConfig config;
  config.seeds = 100;
  config.max_failures = 5;
  std::string replay_path, golden_dir, json_path;
  bool json = false;
  int threads = 4;
  bac::cli::ObsFlags obs;

  for (int i = 1; i < argc; ++i) {
    if (obs.handle(argc, argv, i)) continue;
    const std::string arg = argv[i];
    auto value = [&](const char* flag) {
      return bac::cli::flag_value(argc, argv, i, flag);
    };
    auto numeric = [&](const char* flag, unsigned long long max) {
      return bac::cli::flag_u64(argc, argv, i, flag, max);
    };
    if (arg == "--seeds") {
      config.seeds = static_cast<int>(numeric("--seeds", 100'000'000));
    } else if (arg == "--seed") {
      config.base_seed = numeric("--seed", ~0ull);
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--families") {
      config.families = bac::cli::split_list(value("--families"));
    } else if (arg == "--artifacts") {
      config.artifact_dir = value("--artifacts");
    } else if (arg == "--max-failures") {
      config.max_failures =
          static_cast<int>(numeric("--max-failures", 1'000'000));
    } else if (arg == "--threads") {
      threads = static_cast<int>(numeric("--threads", 4096));
    } else if (arg == "--json") {
      json = true;
      json_path = "fuzz.json";
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        json_path = argv[++i];
    } else if (arg == "--replay") {
      replay_path = value("--replay");
    } else if (arg == "--golden") {
      golden_dir = value("--golden");
    } else if (arg == "--list-families") {
      for (const std::string& name : bac::verify::oracle_family_names())
        std::printf("%s\n", name.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (!golden_dir.empty()) {
    const int count = bac::verify::write_golden_corpus(golden_dir);
    std::printf("golden corpus: %d instances written to %s\n", count,
                golden_dir.c_str());
    return 0;
  }

  // The mc_equivalence and concurrency oracles need real parallelism even
  // on single-core CI runners.
  if (threads > 0) {
    bac::configure_global_pool(static_cast<std::size_t>(threads));
    config.oracle.threads = threads;
  }

  if (!replay_path.empty()) {
    const bac::Instance inst = bac::load_bact(replay_path);
    bac::verify::OracleOptions oracle = config.oracle;
    oracle.seed = config.base_seed;
    for (const std::string& family : config.families)
      if (family == "streaming")
        std::fprintf(stderr,
                     "bacfuzz: note: the streaming family needs the "
                     "generator's twin and is skipped on --replay; "
                     "reproduce streaming failures with "
                     "--seeds 1 --seed <S> --families streaming\n");
    const auto violations =
        bac::verify::replay_instance(inst, config.families, oracle);
    if (violations.empty()) {
      std::printf("replay %s: all oracles clean\n", replay_path.c_str());
      return 0;
    }
    for (const auto& v : violations)
      std::printf("VIOLATION [%s] %s\n", v.family.c_str(), v.detail.c_str());
    return 1;
  }

  config.metrics = &obs.registry();
  config.trace = obs.trace();

  bac::Stopwatch clock;
  const bac::verify::FuzzReport report = bac::verify::run_fuzz(config);
  const double wall_ms = clock.millis();

  for (const auto& f : report.failures) {
    std::printf("VIOLATION seed=%llu [%s] %s\n",
                static_cast<unsigned long long>(f.seed), f.family.c_str(),
                f.detail.c_str());
    std::printf("  instance: %s\n", f.descriptor.c_str());
    std::printf("  shrunk to: n=%d m=%d k=%d T=%d (%d rounds)\n",
                f.shrunk.n_pages(), f.shrunk.blocks.n_blocks(), f.shrunk.k,
                f.shrunk.horizon(), f.shrink_rounds);
    if (!f.bact_path.empty())
      std::printf("  repro: bacfuzz --replay %s --families %s\n",
                  f.bact_path.c_str(), f.family.c_str());
  }
  std::printf(
      "%d seeds, %lld family checks in %.1f ms: %zu violation(s)\n",
      report.seeds_run, report.family_checks, wall_ms,
      report.failures.size());

  if (json) {
    const int rc = write_report(json_path, config, report, wall_ms);
    if (rc != 0) return rc;
    std::printf("[json: %s]\n", json_path.c_str());
  }
  obs.registry().gauge("fuzz_wall_ms").set(wall_ms);
  if (!obs.write_metrics(argv[0], "bacfuzz")) return 1;
  return report.failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bacfuzz failed: %s\n", e.what());
    return 2;
  }
}
