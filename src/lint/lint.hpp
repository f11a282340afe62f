// baclint: a declarative, repo-specific invariant linter.
//
// The generic static analyzers (clang-tidy, TSA, the sanitizers) cannot
// know this repo's contracts: all simulation randomness flows through
// util/rng.hpp so runs are reproducible from one root seed; all mutexes
// are the annotated bac::Mutex so the clang-tsa preset can prove lock
// discipline; hot-path policy/eviction code stays off node-allocating
// hash maps (an allocation per insert, a pointer chase per probe); cost
// values are never compared with raw float equality outside the
// bit-exactness-by-contract verify layer; and golden/bench
// serialization keeps round-trip `%.17g` precision. baclint
// enforces exactly those — cheap enough to run as a `lint`-labeled ctest
// on every build.
//
// v2 layers the engine in two tiers sharing one reporting pipeline:
//   - Rules (this header): one ECMAScript regex per invariant, applied
//     line-by-line over a comment-free view of the file. Since v2 that
//     view is produced by the real tokenizer (lint/token.hpp), so raw
//     strings and multi-line comments strip correctly. `lint_lines` is
//     this tier's entry point: tools/baclint.cpp runs it on every
//     scanned file. The frozen v1 per-line stripper lives on only in
//     tests/test_baclint.cpp, as the reference its differential and
//     TokenizerPin* tests compare against.
//   - Passes (lint/passes.hpp): scope-aware cross-line analyses over
//     the token stream and brace-scope tree (lint/model.hpp) —
//     lock-discipline, determinism hazards, and the include-layering
//     DAG. That request paths allocate nothing is checked at run time,
//     by the counting operator new of tests/test_policies.cpp.
//
// The engine is a library of its own, bac_lint (not part of libbac), so
// tests/test_baclint.cpp can drive each rule and pass against fixtures
// without spawning the CLI; tools/baclint.cpp is a thin front-end over
// it, and they are the only two binaries that link it.
//
// Three suppression levels, most specific first:
//   1. inline: `baclint: allow(<rule-or-pass>)` in a comment on the line,
//   2. allowlist: an AllowEntry (rule, path suffix, line substring),
//   3. rule/pass scope: include/exclude path substrings.
// Suppressed findings are still reported (allowed=true) so the JSON and
// SARIF reports show what is being waived and why.
#pragma once

#include <string>
#include <vector>

namespace bac::lint {

/// One lint rule: a named invariant, its detection regex, and its scope.
struct Rule {
  std::string name;     ///< kebab-case id, e.g. "raw-mutex"
  std::string summary;  ///< one-line statement of the invariant
  std::string pattern;  ///< ECMAScript regex, applied per stripped line
  /// Path substrings the rule applies to; empty = every scanned file.
  std::vector<std::string> include;
  /// Path substrings exempt from the rule (takes precedence).
  std::vector<std::string> exclude;
  std::string hint;  ///< fix-style suggestion appended to diagnostics
};

/// A known-intentional site, waived with a recorded reason.
struct AllowEntry {
  std::string rule;           ///< rule or pass name the entry waives
  std::string path_suffix;    ///< file path must end with this
  std::string line_contains;  ///< line must contain this; "" = whole file
  std::string reason;         ///< why the site is exempt (kept in reports)
};

/// One finding (regex hit or pass diagnostic), suppression resolved.
struct Finding {
  std::string rule;  ///< rule or pass name
  std::string path;
  long long line = 0;  ///< 1-based
  std::string text;    ///< the offending source line, whitespace-trimmed
  std::string hint;
  bool allowed = false;
  std::string allow_reason;  ///< set when allowed
};

/// The repo's active rule table (>= 8 rules; see DESIGN.md "Static
/// analysis" for the invariant behind each and how to add one).
const std::vector<Rule>& default_rules();

/// Known-intentional sites in src/, each with a reason.
const std::vector<AllowEntry>& default_allowlist();

/// Known-intentional sites in the tools/, bench/, and tests/ trees —
/// kept separate from default_allowlist() so `--check src` stays a
/// self-contained gate. Every entry carries a reason.
const std::vector<AllowEntry>& nonsrc_allowlist();

/// Substring-based path gating shared by rules and passes: any exclude
/// substring rejects; empty include accepts; otherwise any include
/// substring accepts.
bool path_selected(const std::string& path,
                   const std::vector<std::string>& include,
                   const std::vector<std::string>& exclude);

/// Resolve suppression for a finding: inline `baclint: allow(<name>)`
/// on the raw source line first, then the allowlist.
void apply_suppressions(Finding& f, const std::string& raw_line,
                        const std::vector<AllowEntry>& allowlist);

/// Leading/trailing whitespace removed (finding text normalization).
std::string trim_line(const std::string& s);

/// Read a source file into lines (CR stripped). Throws
/// std::runtime_error when unreadable.
std::vector<std::string> read_source_lines(const std::string& path);

/// Lint pre-split lines as if read from `path` (the testable core; no
/// filesystem access). Comments are removed through the tokenizer, so
/// multi-line constructs strip correctly; string literals stay visible
/// to format rules. Throws std::invalid_argument on a malformed rule
/// regex.
std::vector<Finding> lint_lines(const std::string& path,
                                const std::vector<std::string>& lines,
                                const std::vector<Rule>& rules,
                                const std::vector<AllowEntry>& allowlist);

/// Recursively collect .hpp/.cpp/.h/.cc files under `root`, sorted so
/// scans are deterministic. The lint fixture corpus (any directory named
/// `lint_fixtures`) is skipped: fixtures exist to violate rules. A
/// single regular file is returned as-is. Throws std::runtime_error when
/// `root` does not exist.
std::vector<std::string> list_source_files(const std::string& root);

/// Number of findings that are NOT allowed (the CLI's exit criterion).
int count_violations(const std::vector<Finding>& findings);

}  // namespace bac::lint
