#include "lint/lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <stdexcept>

#include "lint/token.hpp"

namespace bac::lint {

namespace {

// ---------------------------------------------------------------------
// Rule table. Every rule excludes the linter's own home turf: src/lint/
// spells the banned tokens inside its pattern strings, the fixture
// corpus exists to violate rules, and tests/test_baclint.cpp embeds
// fixture text in string literals (which format rules keep visible).
// ---------------------------------------------------------------------

const std::vector<std::string> kLintHome = {"lint/", "lint_fixtures/",
                                            "test_baclint.cpp"};

/// Home-turf exclusion plus extra sanctioned locations.
std::vector<std::string> lint_home_plus(std::initializer_list<const char*> extra) {
  std::vector<std::string> out(extra.begin(), extra.end());
  out.insert(out.end(), kLintHome.begin(), kLintHome.end());
  return out;
}

// Shared exclusion for simulator-determinism rules: util/rng.hpp is the
// one sanctioned home for raw generator machinery.
const std::vector<std::string> kRngHome = lint_home_plus({"util/rng.hpp"});

const std::vector<Rule>& rule_table() {
  static const std::vector<Rule> rules = {
      {"no-c-rand",
       "libc rand()/srand() is banned: global hidden state breaks "
       "seed-reproducibility and thread determinism",
       R"(\b(?:srand|rand)\s*\()",
       {},
       kRngHome,
       "draw from a seeded bac::Xoshiro256pp (util/rng.hpp) instead"},
      {"no-random-device",
       "std::random_device is banned: nondeterministic entropy makes "
       "runs unreproducible from the root seed",
       R"(std::random_device)",
       {},
       kRngHome,
       "derive seeds from the experiment's root seed via splitmix64 "
       "(util/rng.hpp)"},
      {"no-std-engine",
       "std <random> engines are banned outside util/rng.hpp: their "
       "streams are not substream-splittable and mt19937 distributions "
       "vary across standard libraries",
       R"(std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine|ranlux(?:24|48)(?:_base)?|knuth_b))",
       {},
       kRngHome,
       "use bac::Xoshiro256pp / splitmix64 from util/rng.hpp"},
      {"no-wallclock-seed",
       "wall-clock time as a seed or input is banned: system_clock and "
       "time(...) make results depend on when the run started",
       R"(std::chrono::system_clock|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\))",
       {},
       kLintHome,
       "seed from the experiment's root seed; for intervals use the "
       "steady-clock Stopwatch (util/timer.hpp)"},
      {"raw-mutex",
       "raw std::mutex (and friends) are banned: locks must be the "
       "annotated bac::Mutex so the clang-tsa preset can prove the "
       "locking discipline at compile time",
       R"(std::(?:recursive_mutex|timed_mutex|recursive_timed_mutex|shared_mutex|mutex)\b)",
       {},
       lint_home_plus({"util/thread_annotations.hpp"}),
       "use bac::Mutex + MutexLock (util/thread_annotations.hpp) and "
       "GUARDED_BY on the members it protects"},
      {"hot-path-unordered-map",
       "std::unordered_* in hot-path policy/eviction/server code is "
       "banned: a node-allocating hash map allocates on insert and "
       "chases a pointer on every probe of the per-request path",
       R"(std::unordered_(?:map|set|multimap|multiset)\b)",
       {"algs/policies/", "core/", "server/"},
       kLintHome,
       "use bac::FlatMap/FlatSet (util/flat_hash.hpp), the flat "
       "primitives in core/eviction_index.hpp, a plain vector keyed by "
       "dense page id, or keep the map out of the hot path"},
      {"float-equality",
       "float equality on cost values is banned outside src/verify/ "
       "(where bit-exact comparison is the differential contract): "
       "accumulated costs compare reliably only with an epsilon",
       R"((?:\w|->|\.)*[Cc]osts?(?:\(\))?\s*[!=]=|[!=]=\s*[-+(\s]*(?:\w|->|\.)*[Cc]osts?\b|[!=]=\s*[-+]?\d+\.\d*\b|\b\d+\.\d*\s*[!=]=)",
       {},
       lint_home_plus({"verify/"}),
       "compare with std::abs(a - b) <= eps, or document the exact-zero "
       "guard with an allowlist entry"},
      {"serialization-precision",
       "float formats below %.17g in golden/bench serialization are "
       "banned: %.17g is the shortest precision that round-trips an IEEE "
       "double, anything less corrupts checksum comparisons",
       R"(%(?!\.17g)[-+ #0-9.]*[efgEFG]\b)",
       {"verify/", "util/json", "driver/"},
       kLintHome,
       "serialize doubles with %.17g (or write_json_number, which does)"},
      {"no-volatile",
       "volatile is banned: it is not a synchronization primitive and "
       "hides real races from TSan and the thread-safety analysis",
       R"(\bvolatile\b)",
       {},
       kLintHome,
       "use std::atomic with explicit memory ordering, or a bac::Mutex"},
      {"no-endl",
       "std::endl is banned in library code: it forces a flush per line "
       "and turns bulk serialization into one syscall per record",
       R"(std::endl\b)",
       {},
       kLintHome,
       "write '\\n' and flush once at the end (or rely on the stream "
       "destructor)"},
      {"raw-chrono-timing",
       "direct std::chrono clock reads are banned: scattered now() calls "
       "bypass the observability layer and invite wall-clock values into "
       "checksummed outputs",
       R"(std::chrono::(?:steady_clock|high_resolution_clock)::now\s*\()",
       {},
       lint_home_plus({"util/timer.hpp"}),
       "time intervals with bac::Stopwatch (util/timer.hpp) or an obs "
       "Span (obs/trace.hpp)"},
  };
  return rules;
}

const std::vector<AllowEntry>& allow_table() {
  static const std::vector<AllowEntry> allows = {
      {"float-equality", "util/stats.cpp", "den == 0.0",
       "exact-zero guard before dividing; any nonzero denominator is "
       "usable"},
      {"float-equality", "lp/simplex.cpp", "cb == 0.0",
       "simplex skips exactly-zero basis coefficients; an epsilon here "
       "would skip live pivots"},
      {"float-equality", "lp/simplex.cpp", "factor == 0.0",
       "row elimination skips exactly-zero factors; correctness, not a "
       "tolerance question"},
  };
  return allows;
}

const std::vector<AllowEntry>& nonsrc_allow_table() {
  static const std::vector<AllowEntry> allows = {
      {"float-equality", "tools/bacload.cpp", "total_cost() != runs.front()",
       "--check-equivalence asserts the bit-exact batched-cost contract "
       "across thread counts; an epsilon would mask real drift"},
      {"float-equality", "bench/bench_main.cpp", "r.cost == base->cost",
       "replicate-consistency column compares checksummed costs that are "
       "bit-identical by the determinism contract"},
      {"float-equality", "tests/test_request_source.cpp", "_cost == b.",
       "streaming-vs-materialized equivalence is bit-exact by contract; "
       "the test must fail on any drift"},
      {"float-equality", "tests/test_trace_formats.cpp", "_cost == b.",
       "format round-trip equivalence is bit-exact by contract; the test "
       "must fail on any drift"},
  };
  return allows;
}

std::string trim(const std::string& s) {
  std::size_t lo = s.find_first_not_of(" \t");
  if (lo == std::string::npos) return "";
  std::size_t hi = s.find_last_not_of(" \t");
  return s.substr(lo, hi - lo + 1);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

const std::vector<Rule>& default_rules() { return rule_table(); }
const std::vector<AllowEntry>& default_allowlist() { return allow_table(); }
const std::vector<AllowEntry>& nonsrc_allowlist() { return nonsrc_allow_table(); }

std::string trim_line(const std::string& s) { return trim(s); }

bool path_selected(const std::string& path,
                   const std::vector<std::string>& include,
                   const std::vector<std::string>& exclude) {
  for (const std::string& ex : exclude)
    if (path.find(ex) != std::string::npos) return false;
  if (include.empty()) return true;
  for (const std::string& inc : include)
    if (path.find(inc) != std::string::npos) return true;
  return false;
}

void apply_suppressions(Finding& f, const std::string& raw_line,
                        const std::vector<AllowEntry>& allowlist) {
  if (raw_line.find("baclint: allow(" + f.rule + ")") != std::string::npos) {
    f.allowed = true;
    f.allow_reason = "inline suppression";
    return;
  }
  for (const AllowEntry& a : allowlist) {
    if (a.rule != f.rule) continue;
    if (!ends_with(f.path, a.path_suffix)) continue;
    if (!a.line_contains.empty() &&
        raw_line.find(a.line_contains) == std::string::npos)
      continue;
    f.allowed = true;
    f.allow_reason = a.reason;
    return;
  }
}

std::vector<Finding> lint_lines(const std::string& path,
                                const std::vector<std::string>& lines,
                                const std::vector<Rule>& rules,
                                const std::vector<AllowEntry>& allowlist) {
  struct Active {
    const Rule* rule;
    std::regex re;
  };
  std::vector<Active> active;
  for (const Rule& rule : rules) {
    if (!path_selected(path, rule.include, rule.exclude)) continue;
    try {
      active.push_back({&rule, std::regex(rule.pattern)});
    } catch (const std::regex_error& e) {
      throw std::invalid_argument("baclint: rule '" + rule.name +
                                  "' has a malformed pattern: " + e.what());
    }
  }
  std::vector<Finding> findings;
  if (active.empty()) return findings;

  // v2: the comment-free view comes from the tokenizer, so raw strings
  // and multi-line comments strip correctly (the v1 per-line state
  // machine got both wrong). String literals stay visible by design.
  const std::vector<Token> tokens = tokenize(lines);
  const std::vector<std::string> stripped = stripped_lines(lines, tokens);

  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const Active& a : active) {
      if (!std::regex_search(stripped[i], a.re)) continue;
      Finding f;
      f.rule = a.rule->name;
      f.path = path;
      f.line = static_cast<long long>(i) + 1;
      f.text = trim(lines[i]);
      f.hint = a.rule->hint;
      apply_suppressions(f, lines[i], allowlist);
      findings.push_back(std::move(f));
    }
  }
  return findings;
}

std::vector<std::string> read_source_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("baclint: cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(line);
  }
  if (in.bad()) throw std::runtime_error("baclint: read error on " + path);
  return lines;
}

std::vector<std::string> list_source_files(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path base(root);
  if (!fs::exists(base))
    throw std::runtime_error("baclint: no such path: " + root);
  std::vector<std::string> files;
  if (fs::is_regular_file(base)) {
    files.push_back(base.generic_string());
    return files;
  }
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    const std::string p = entry.path().generic_string();
    // The fixture corpus exists to violate rules; never scan it.
    if (p.find("lint_fixtures/") != std::string::npos) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
      files.push_back(p);
  }
  std::sort(files.begin(), files.end());
  return files;
}

int count_violations(const std::vector<Finding>& findings) {
  int n = 0;
  for (const Finding& f : findings)
    if (!f.allowed) ++n;
  return n;
}

}  // namespace bac::lint
