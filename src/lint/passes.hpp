// Cross-line analysis passes for baclint v2.
//
// A Pass is the scope-aware sibling of a Rule: it runs over FileModels
// (token stream + scope tree + harvested declarations) instead of
// stripped lines, and it may correlate facts across files — the
// lock-discipline pass reads GUARDED_BY annotations out of headers and
// checks accesses in every .cpp of the corpus against them.
//
// Findings flow into the same reporting pipeline as rule findings: the
// same Finding struct, the same three suppression levels (inline
// `baclint: allow(<pass>)`, allowlist entries with mandatory reasons,
// per-pass include/exclude path gating), the same JSON/SARIF writers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lint/model.hpp"

namespace bac::lint {

/// Metadata for one analysis pass (the scope-aware analogue of Rule).
struct Pass {
  std::string name;     ///< kebab-case id; doubles as the fixture dir name
  std::string summary;  ///< one-line contract, for reports and --list-rules
  std::string hint;     ///< remediation advice attached to findings
  std::vector<std::string> include;  ///< path substrings; empty = everywhere
  std::vector<std::string> exclude;  ///< path substrings; exclusion wins
};

/// The three v2 passes: lock-discipline, nondet-iteration, layering.
/// Order is stable; CI pins the count.
const std::vector<Pass>& default_passes();

/// One layer of the declared architecture DAG: `name` may include only
/// headers from layers in `deps` (and its own layer, and extensionless
/// local headers). Checked by the layering pass; documented in DESIGN.md.
struct Layer {
  std::string name;
  std::vector<std::string> deps;
};

/// The declared include-layering DAG:
/// util → {lint,obs} → core → {trace,lp,server} → submodular → algs →
/// driver → verify → {tools,bench,tests}.
const std::vector<Layer>& layering_graph();

/// Map a repo-relative path to its layer name ("" when unlayered).
std::string layer_of_path(const std::string& path);

/// Run `passes` over the corpus. Lock annotations are harvested from
/// every model (headers included) before any file is checked, so
/// cross-file GUARDED_BY/REQUIRES facts are visible everywhere.
/// Suppressions are resolved exactly as for rules.
std::vector<Finding> run_passes(const std::vector<FileModel>& corpus,
                                const std::vector<Pass>& passes,
                                const std::vector<AllowEntry>& allowlist);

/// Full v2 JSON report: the rule table, the pass table, and findings
/// from both, in the bench JSON house style; `files_scanned` is
/// informational.
void write_json_report(std::ostream& os, const std::vector<Rule>& rules,
                       const std::vector<Pass>& passes,
                       const std::vector<Finding>& findings,
                       long long files_scanned);

}  // namespace bac::lint
