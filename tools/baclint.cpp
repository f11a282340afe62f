// baclint — the repo-specific invariant linter (engine: src/lint/).
//
//   baclint --check src [--check tools ...]   scan trees (or single files)
//           [--json report.json]              machine-readable report
//           [--sarif report.sarif]            SARIF 2.1.0 (code scanning)
//           [--rule <name>]                   restrict to one rule/pass
//           [--verbose]                       also print allowed findings
//           [--list-rules]                    print rules + passes and exit
//
// Two engines share one report: the regex rule table scans each file's
// comment-free line view, and the semantic passes (lock-discipline,
// nondet-iteration, layering) run over the token/scope models of the
// whole scanned corpus — lock annotations harvested from headers apply
// to every .cpp scanned with them.
//
// Exit status: 0 when every finding is allowed (or none), 1 when any
// violation stands, 2 on usage errors. Diagnostics are one line per
// finding — `path:line: [rule] offending text` plus an indented fix
// hint — so editors and CI annotate them directly.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "lint/lint.hpp"
#include "lint/model.hpp"
#include "lint/passes.hpp"
#include "lint/sarif.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --check <path> [--check <path> ...] "
               "[--json <report.json>] [--sarif <report.sarif>] "
               "[--rule <name> ...] [--verbose]\n"
               "       %s [--metrics <out.json|out.prom>] "
               "[--trace <out.jsonl>]\n"
               "       %s --list-rules\n",
               argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bac::lint;
  std::vector<std::string> roots;
  std::vector<std::string> only;
  std::string json_path;
  std::string sarif_path;
  bool verbose = false;
  bool list_rules = false;
  bac::cli::ObsFlags obs;

  for (int i = 1; i < argc; ++i) {
    if (obs.handle(argc, argv, i)) continue;
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "baclint: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--check") {
      roots.emplace_back(next("--check"));
    } else if (arg == "--json") {
      json_path = next("--json");
    } else if (arg == "--sarif") {
      sarif_path = next("--sarif");
    } else if (arg == "--rule") {
      only.emplace_back(next("--rule"));
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(argv[0]) == 2 ? 0 : 0;
    } else {
      std::fprintf(stderr, "baclint: unknown argument '%s'\n", arg.c_str());
      return usage(argv[0]);
    }
  }

  // --rule filters rules and passes alike; every name must exist.
  auto selected = [&](const std::string& name) {
    if (only.empty()) return true;
    for (const std::string& n : only)
      if (n == name) return true;
    return false;
  };
  std::vector<Rule> rules;
  for (const Rule& r : default_rules())
    if (selected(r.name)) rules.push_back(r);
  std::vector<Pass> passes;
  for (const Pass& p : default_passes())
    if (selected(p.name)) passes.push_back(p);
  if (!only.empty() && rules.size() + passes.size() != only.size()) {
    std::fprintf(stderr,
                 "baclint: unknown rule in --rule (see --list-rules)\n");
    return 2;
  }

  if (list_rules) {
    for (const Rule& r : rules) {
      std::printf("%-26s %s\n", r.name.c_str(), r.summary.c_str());
      std::printf("%-26s hint: %s\n", "", r.hint.c_str());
    }
    for (const Pass& p : passes) {
      std::printf("%-26s [pass] %s\n", p.name.c_str(), p.summary.c_str());
      std::printf("%-26s hint: %s\n", "", p.hint.c_str());
    }
    return 0;
  }
  if (roots.empty()) return usage(argv[0]);

  // Both allowlists are merged: entries are keyed by path suffix, so
  // src entries never fire on tools/bench/tests files and vice versa.
  std::vector<AllowEntry> allows = default_allowlist();
  const auto& nonsrc = nonsrc_allowlist();
  allows.insert(allows.end(), nonsrc.begin(), nonsrc.end());

  try {
    std::vector<Finding> findings;
    std::vector<FileModel> corpus;
    long long files_scanned = 0;
    for (const std::string& root : roots) {
      bac::obs::Span root_span(obs.trace(), "lint/" + root);
      long long root_files = 0;
      for (const std::string& file : list_source_files(root)) {
        ++files_scanned;
        ++root_files;
        std::vector<std::string> lines = read_source_lines(file);
        auto fs = lint_lines(file, lines, rules, allows);
        findings.insert(findings.end(), fs.begin(), fs.end());
        corpus.push_back(build_file_model(file, std::move(lines)));
      }
      root_span.num("files", static_cast<double>(root_files));
    }
    {
      bac::obs::Span pass_span(obs.trace(), "lint/passes");
      auto fs = run_passes(corpus, passes, allows);
      findings.insert(findings.end(), fs.begin(), fs.end());
      pass_span.num("findings", static_cast<double>(fs.size()));
    }

    int violations = 0;
    for (const Finding& f : findings) {
      if (f.allowed) {
        if (verbose)
          std::printf("%s:%lld: note: [%s] allowed (%s): %s\n",
                      f.path.c_str(), f.line, f.rule.c_str(),
                      f.allow_reason.c_str(), f.text.c_str());
        continue;
      }
      ++violations;
      std::printf("%s:%lld: error: [%s] %s\n", f.path.c_str(), f.line,
                  f.rule.c_str(), f.text.c_str());
      std::printf("    hint: %s\n", f.hint.c_str());
    }

    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::fprintf(stderr, "baclint: cannot write %s\n",
                     json_path.c_str());
        return 2;
      }
      write_json_report(out, rules, passes, findings, files_scanned);
    }
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path);
      if (!out) {
        std::fprintf(stderr, "baclint: cannot write %s\n",
                     sarif_path.c_str());
        return 2;
      }
      write_sarif_report(out, rules, passes, findings);
    }

    std::printf(
        "baclint: %lld files, %zu rules, %zu passes, %zu findings "
        "(%d violations, %zu allowed)\n",
        files_scanned, rules.size(), passes.size(), findings.size(),
        violations, findings.size() - static_cast<std::size_t>(violations));
    auto& registry = obs.registry();
    registry.counter("lint_files_scanned_total")
        .inc(static_cast<std::uint64_t>(files_scanned));
    registry.counter("lint_findings_total").inc(findings.size());
    registry.counter("lint_violations_total")
        .inc(static_cast<std::uint64_t>(violations));
    if (!obs.write_metrics(argv[0], "baclint")) return 2;
    return violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baclint: %s\n", e.what());
    return 2;
  }
}
