// Tests for the baclint engine (src/lint/) driven as a library.
//
// The fixture corpus under tests/lint_fixtures/ holds one positive
// (must-flag) and one negative (must-pass) file per rule AND per pass;
// the fixture directory name IS the rule/pass name, so the corpus
// cannot silently drift from the tables: a rule or pass without
// fixtures fails EveryRuleHasAFixturePair / EveryPassHasAFixturePair,
// and a fixture directory naming nothing fails
// EveryFixtureDirNamesARuleOrPass. Directories starting with `_` are
// engine-pathology pins (tokenizer corner cases), not rule fixtures.
//
// Fixtures are scanned with a synthetic in-repo path (e.g.
// "src/core/fixture.cpp") so scoped rules and passes see the path shape
// they key on, independent of where the test actually runs.
//
// Two meta-suites guard the v1→v2 engine swap:
//   - DifferentialV1VsV2OnRuleFixtures re-runs every rule over its own
//     fixtures through a frozen copy of the v1 per-line stripper and
//     asserts the tokenizer-backed lint_lines() reproduces the exact
//     (rule, line) hit set — the regex tier must not change behavior on
//     well-formed input.
//   - The TokenizerPin* tests cover the two inputs where v1 was WRONG
//     (multi-line raw strings, line-comment backslash continuations)
//     and pin that v2 diverges in the correct direction.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lint/model.hpp"
#include "lint/passes.hpp"
#include "lint/sarif.hpp"
#include "lint/token.hpp"
#include "util/json.hpp"

namespace bac::lint {
namespace {

std::string fixture_dir() { return BAC_LINT_FIXTURE_DIR; }

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// The synthetic path a rule's fixtures are linted under — chosen to
/// sit inside the rule's include scope and outside its excludes.
std::string synthetic_path_for(const std::string& rule) {
  if (rule == "hot-path-unordered-map" || rule == "float-equality")
    return "src/core/fixture.cpp";
  if (rule == "serialization-precision") return "src/verify/fixture.cpp";
  if (rule == "raw-mutex" || rule == "no-volatile")
    return "src/server/fixture.cpp";
  if (rule == "no-endl") return "src/util/fixture.cpp";
  return "src/driver/fixture.cpp";
}

/// Same idea for the v2 passes: a path in each pass's natural habitat
/// (and, for layering, the layer the fixture's includes are judged as).
std::string synthetic_path_for_pass(const std::string& pass) {
  if (pass == "lock-discipline") return "src/server/fixture.cpp";
  if (pass == "nondet-iteration") return "src/obs/fixture.cpp";
  if (pass == "hot-path-alloc") return "src/algs/policies/fixture.cpp";
  return "src/core/fixture.cpp";  // layering: fixtures pose as core files
}

/// Build a one-file corpus for `lines` posing as `path` and run the
/// full pass table over it.
std::vector<Finding> run_passes_on(const std::string& path,
                                   const std::vector<std::string>& lines) {
  std::vector<FileModel> corpus;
  corpus.push_back(build_file_model(path, lines));
  return run_passes(corpus, default_passes(), {});
}

/// Frozen verbatim copy of the v1 per-line comment stripper (the state
/// machine lint_lines() used before the tokenizer). Kept here as the
/// reference implementation for the differential and pin tests; do NOT
/// "fix" it — its raw-string and continuation bugs are the point.
std::string v1_strip_comments(const std::string& line, bool& in_block) {
  std::string out;
  out.reserve(line.size());
  bool in_string = false, in_char = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    const char next = i + 1 < line.size() ? line[i + 1] : '\0';
    if (in_block) {
      if (c == '*' && next == '/') {
        in_block = false;
        ++i;
      }
      out.push_back(' ');
      continue;
    }
    if (in_string) {
      out.push_back(c);
      if (c == '\\' && i + 1 < line.size()) {
        out.push_back(next);
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (in_char) {
      out.push_back(c);
      if (c == '\\' && i + 1 < line.size()) {
        out.push_back(next);
        ++i;
      } else if (c == '\'') {
        in_char = false;
      }
      continue;
    }
    if (c == '/' && next == '/') break;  // line comment: drop the rest
    if (c == '/' && next == '*') {
      in_block = true;
      out.append("  ");
      ++i;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '\'') in_char = true;
    out.push_back(c);
  }
  return out;
}

/// 1-based lines where `rule`'s regex fires under the frozen v1
/// stripper (no path gating — the caller picks an in-scope path).
std::set<long long> v1_hit_lines(const Rule& rule,
                                 const std::vector<std::string>& lines) {
  std::set<long long> hits;
  const std::regex re(rule.pattern);
  bool in_block = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (std::regex_search(v1_strip_comments(lines[i], in_block), re))
      hits.insert(static_cast<long long>(i) + 1);
  }
  return hits;
}

/// 1-based lines where the current engine reports `rule` for `lines`.
std::set<long long> v2_hit_lines(const std::string& rule,
                                 const std::string& path,
                                 const std::vector<std::string>& lines) {
  std::set<long long> hits;
  for (const Finding& f : lint_lines(path, lines, default_rules(), {}))
    if (f.rule == rule) hits.insert(f.line);
  return hits;
}

const Rule* find_rule(const std::string& name) {
  for (const Rule& r : default_rules())
    if (r.name == name) return &r;
  return nullptr;
}

// ---------------------------------------------------------------------
// Tier 1: the regex rule table (v1 surface, now tokenizer-backed).
// ---------------------------------------------------------------------

TEST(BacLint, RuleTableHasAtLeastEightUniquelyNamedRules) {
  const auto& rules = default_rules();
  EXPECT_GE(rules.size(), 8u);
  std::vector<std::string> names;
  for (const Rule& r : rules) {
    EXPECT_FALSE(r.name.empty());
    EXPECT_FALSE(r.summary.empty()) << r.name;
    EXPECT_FALSE(r.pattern.empty()) << r.name;
    EXPECT_FALSE(r.hint.empty()) << r.name;
    names.push_back(r.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::adjacent_find(names.begin(), names.end()) == names.end())
      << "duplicate rule name";
}

TEST(BacLint, EveryRuleHasAFixturePair) {
  namespace fs = std::filesystem;
  for (const Rule& r : default_rules()) {
    const fs::path dir = fs::path(fixture_dir()) / r.name;
    EXPECT_TRUE(fs::is_regular_file(dir / "bad.cpp")) << r.name;
    EXPECT_TRUE(fs::is_regular_file(dir / "good.cpp")) << r.name;
  }
}

TEST(BacLint, PositiveFixturesAreFlaggedByTheirRule) {
  for (const Rule& r : default_rules()) {
    const auto lines = read_lines(fixture_dir() + "/" + r.name + "/bad.cpp");
    const auto findings =
        lint_lines(synthetic_path_for(r.name), lines, default_rules(), {});
    int hits = 0;
    for (const Finding& f : findings)
      if (f.rule == r.name) {
        ++hits;
        EXPECT_FALSE(f.allowed) << r.name;
        EXPECT_GT(f.line, 0) << r.name;
        EXPECT_EQ(f.hint, r.hint) << r.name;
        EXPECT_FALSE(f.text.empty()) << r.name;
      }
    EXPECT_GE(hits, 1) << "rule '" << r.name
                       << "' missed its positive fixture";
  }
}

TEST(BacLint, NegativeFixturesPassTheWholeRuleTable) {
  for (const Rule& r : default_rules()) {
    const auto lines = read_lines(fixture_dir() + "/" + r.name + "/good.cpp");
    const auto findings = lint_lines(synthetic_path_for(r.name), lines,
                                     default_rules(), default_allowlist());
    EXPECT_TRUE(findings.empty())
        << "negative fixture for '" << r.name << "' flagged as '"
        << (findings.empty() ? "" : findings.front().rule) << "'";
  }
}

TEST(BacLint, CommentedBannedTokensAreIgnored) {
  const std::vector<std::string> lines = {
      "// std::mutex mentioned in a line comment",
      "/* block comment opens: std::mutex",
      "   still inside, std::random_device too",
      "*/ int live_code = 0;",
      "int x = live_code; /* std::endl */ int y = x;",
  };
  const auto findings =
      lint_lines("src/server/commented.cpp", lines, default_rules(), {});
  EXPECT_TRUE(findings.empty());
}

TEST(BacLint, StringLiteralsStayVisibleToFormatRules) {
  // Comment stripping must NOT blank string literals: the
  // serialization-precision rule matches inside format strings.
  const std::vector<std::string> lines = {
      R"(std::snprintf(buf, n, "%f", cost);)",
  };
  const auto findings =
      lint_lines("src/verify/fmt.cpp", lines, default_rules(), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "serialization-precision");
}

TEST(BacLint, InlineSuppressionAllowsButStillReports) {
  const std::vector<std::string> lines = {
      "std::mutex legacy_;  // baclint: allow(raw-mutex)",
  };
  const auto findings =
      lint_lines("src/server/legacy.cpp", lines, default_rules(), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_TRUE(findings.front().allowed);
  EXPECT_EQ(findings.front().allow_reason, "inline suppression");
  EXPECT_EQ(count_violations(findings), 0);
}

TEST(BacLint, InlineSuppressionIsRuleSpecific) {
  // Allowing one rule must not waive a different rule on the same line.
  const std::vector<std::string> lines = {
      "std::mutex legacy_;  // baclint: allow(no-endl)",
  };
  const auto findings =
      lint_lines("src/server/legacy.cpp", lines, default_rules(), {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_FALSE(findings.front().allowed);
  EXPECT_EQ(count_violations(findings), 1);
}

TEST(BacLint, AllowlistMatchesPathSuffixAndLineSubstring) {
  const std::vector<AllowEntry> allows = {
      {"raw-mutex", "server/legacy.cpp", "legacy_",
       "migration scheduled; tracked in ROADMAP"},
  };
  const std::vector<std::string> lines = {
      "std::mutex legacy_;",
      "std::mutex fresh_;",
  };
  const auto findings =
      lint_lines("src/server/legacy.cpp", lines, default_rules(), allows);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(findings[0].allowed);
  EXPECT_EQ(findings[0].allow_reason,
            "migration scheduled; tracked in ROADMAP");
  EXPECT_FALSE(findings[1].allowed) << "entry must not waive other lines";
  // Same lines under a different path: the suffix gate keeps the entry
  // from applying.
  const auto other =
      lint_lines("src/server/other.cpp", lines, default_rules(), allows);
  EXPECT_EQ(count_violations(other), 2);
}

TEST(BacLint, RuleScopeIncludeAndExcludeGateByPath) {
  const std::vector<std::string> map_line = {
      "std::unordered_map<int, int> m;"};
  // hot-path-unordered-map only applies inside its include scope.
  EXPECT_EQ(lint_lines("src/driver/x.cpp", map_line, default_rules(), {})
                .size(),
            0u);
  EXPECT_EQ(
      lint_lines("src/core/x.cpp", map_line, default_rules(), {}).size(),
      1u);
  // float-equality is excluded from the bit-exact verify layer.
  const std::vector<std::string> eq_line = {"if (cost == ref_cost) f();"};
  EXPECT_EQ(
      lint_lines("src/verify/x.cpp", eq_line, default_rules(), {}).size(),
      0u);
  EXPECT_EQ(
      lint_lines("src/core/x.cpp", eq_line, default_rules(), {}).size(), 1u);
}

TEST(BacLint, MalformedRulePatternThrows) {
  const std::vector<Rule> broken = {
      {"broken", "unbalanced paren", "(", {}, {}, "fix the regex"}};
  EXPECT_THROW(lint_lines("src/x.cpp", {"int x;"}, broken, {}),
               std::invalid_argument);
}

TEST(BacLint, JsonReportCarriesRulesFindingsAndAggregate) {
  const std::vector<std::string> lines = {
      "std::mutex a_;",
      "std::mutex legacy_;  // baclint: allow(raw-mutex)",
  };
  const auto findings =
      lint_lines("src/server/x.cpp", lines, default_rules(), {});
  ASSERT_EQ(findings.size(), 2u);
  std::ostringstream os;
  write_json_report(os, default_rules(), {}, findings, 1);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"bench\": \"baclint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"raw-mutex\""), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"allowed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"reason\": \"inline suppression\""),
            std::string::npos);
}

TEST(BacLint, ListSourceFilesSkipsTheFixtureCorpus) {
  // The corpus exists to violate rules, so tree scans must never see
  // it — a fixture reaching a real scan would fail the CI gate.
  const auto inside = list_source_files(fixture_dir());
  EXPECT_TRUE(inside.empty())
      << "lint_fixtures leaked into a scan: " << inside.front();
  namespace fs = std::filesystem;
  const auto files =
      list_source_files(fs::path(fixture_dir()).parent_path().string());
  EXPECT_FALSE(files.empty());
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  for (const std::string& f : files)
    EXPECT_EQ(f.find("lint_fixtures"), std::string::npos) << f;
  EXPECT_THROW(list_source_files(fixture_dir() + "/nope"),
               std::runtime_error);
}

TEST(BacLint, DefaultAllowlistEntriesAllCarryReasons) {
  for (const AllowEntry& a : default_allowlist()) {
    EXPECT_FALSE(a.rule.empty());
    EXPECT_FALSE(a.path_suffix.empty());
    EXPECT_FALSE(a.reason.empty()) << a.rule << " @ " << a.path_suffix;
    bool known = false;
    for (const Rule& r : default_rules()) known |= (r.name == a.rule);
    for (const Pass& p : default_passes()) known |= (p.name == a.rule);
    EXPECT_TRUE(known) << "allowlist names unknown rule " << a.rule;
  }
}

TEST(BacLint, NonsrcAllowlistEntriesAllCarryReasons) {
  // The tools/bench/tests waivers live in their own table so `--check
  // src` stays self-contained; they obey the same hygiene.
  EXPECT_FALSE(nonsrc_allowlist().empty());
  for (const AllowEntry& a : nonsrc_allowlist()) {
    EXPECT_FALSE(a.rule.empty());
    EXPECT_FALSE(a.path_suffix.empty());
    EXPECT_FALSE(a.reason.empty()) << a.rule << " @ " << a.path_suffix;
    EXPECT_EQ(a.path_suffix.find("src/"), std::string::npos)
        << "src/ waivers belong in default_allowlist(): " << a.path_suffix;
    bool known = false;
    for (const Rule& r : default_rules()) known |= (r.name == a.rule);
    for (const Pass& p : default_passes()) known |= (p.name == a.rule);
    EXPECT_TRUE(known) << "allowlist names unknown rule " << a.rule;
  }
}

// ---------------------------------------------------------------------
// Tokenizer: the shared lexical substrate of both tiers.
// ---------------------------------------------------------------------

TEST(BacLint, TokenizerLexesRawStringsAndPreprocessorContinuations) {
  const std::vector<std::string> lines = {
      "#define WIDE(x) \\",
      "  ((x) + 1)",
      "auto s = R\"id(first",
      "second /* not a comment */)id\";",
      "int tail = 0;",
  };
  const auto toks = tokenize(lines);
  const Token* raw = nullptr;
  for (const Token& t : toks) {
    if (t.line <= 2) {
      EXPECT_TRUE(t.preproc) << t.text;
    }
    if (t.line == 5) {
      EXPECT_FALSE(t.preproc) << t.text;
    }
    EXPECT_NE(t.kind, Tok::Comment) << "raw-string body lexed as comment";
    if (t.kind == Tok::RawStr) raw = &t;
  }
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->line, 3);
  EXPECT_EQ(raw->end_line, 4);
  EXPECT_NE(raw->text.find("not a comment"), std::string::npos);
}

TEST(BacLint, StrippedLinesTruncateLineCommentsAndBlankBlockComments) {
  const std::vector<std::string> lines = {
      "int a = 1; // trailing",
      "int b = 2; /* mid */ int c = 3;",
      "/* open",
      "   still open */ int d = 4;",
  };
  const auto stripped = stripped_lines(lines, tokenize(lines));
  ASSERT_EQ(stripped.size(), lines.size());
  EXPECT_EQ(stripped[0], "int a = 1; ");
  EXPECT_EQ(stripped[1].size(), lines[1].size()) << "columns must keep";
  EXPECT_EQ(stripped[1].find("mid"), std::string::npos);
  EXPECT_NE(stripped[1].find("int c = 3;"), std::string::npos);
  EXPECT_EQ(trim_line(stripped[2]), "");
  EXPECT_EQ(stripped[3].find("still open"), std::string::npos);
  EXPECT_NE(stripped[3].find("int d = 4;"), std::string::npos);
}

TEST(BacLint, TokenizerPinRawStringUnmasksV1FalseNegative) {
  // v1's per-line stripper read the `/*` inside a multi-line raw string
  // as a comment opener and blanked the rest of the file, hiding a real
  // raw-mutex violation. The tokenizer lexes the raw string whole.
  const auto lines =
      read_lines(fixture_dir() + "/_tokenizer/raw_string_unmasks.cpp");
  const Rule* raw_mutex = find_rule("raw-mutex");
  ASSERT_NE(raw_mutex, nullptr);
  EXPECT_TRUE(v1_hit_lines(*raw_mutex, lines).empty())
      << "fixture no longer reproduces the v1 false negative";
  const auto v2 =
      v2_hit_lines("raw-mutex", "src/server/fixture.cpp", lines);
  ASSERT_EQ(v2.size(), 1u);
  const auto& flagged = lines[static_cast<std::size_t>(*v2.begin()) - 1];
  EXPECT_NE(flagged.find("std::mutex hidden_"), std::string::npos);
}

TEST(BacLint, TokenizerPinLineCommentContinuationV1FalsePositive) {
  // A `//` comment whose physical line ends in a backslash continues
  // onto the next line; v1 linted the continuation as live code.
  const auto lines =
      read_lines(fixture_dir() + "/_tokenizer/line_comment_continuation.cpp");
  const Rule* raw_mutex = find_rule("raw-mutex");
  ASSERT_NE(raw_mutex, nullptr);
  EXPECT_EQ(v1_hit_lines(*raw_mutex, lines).size(), 1u)
      << "fixture no longer reproduces the v1 false positive";
  EXPECT_TRUE(
      v2_hit_lines("raw-mutex", "src/server/fixture.cpp", lines).empty());
}

TEST(BacLint, DifferentialV1VsV2OnRuleFixtures) {
  // On well-formed input (the whole rule-fixture corpus) the
  // tokenizer-backed lint_lines() must reproduce the v1 stripper's
  // exact hit set per rule — the engine swap may only change behavior
  // on the pathological inputs pinned above.
  for (const Rule& r : default_rules()) {
    for (const char* which : {"bad.cpp", "good.cpp"}) {
      const auto lines =
          read_lines(fixture_dir() + "/" + r.name + "/" + which);
      EXPECT_EQ(v1_hit_lines(r, lines),
                v2_hit_lines(r.name, synthetic_path_for(r.name), lines))
          << r.name << "/" << which;
    }
  }
}

// ---------------------------------------------------------------------
// Scope model: the structural substrate of the passes.
// ---------------------------------------------------------------------

TEST(BacLint, FileModelClassifiesScopesAndHarvestsAnnotations) {
  const auto lines =
      read_lines(fixture_dir() + "/lock-discipline/good.cpp");
  const auto m = build_file_model("src/server/fixture.cpp", lines);
  bool saw_record = false, saw_ctor = false, saw_method = false;
  for (const Scope& s : m.scopes) {
    if (s.kind == Scope::Kind::Record && s.name == "FixtureShard")
      saw_record = true;
    if (s.kind == Scope::Kind::Function && s.record == "FixtureShard") {
      saw_method = true;
      if (s.ctor_dtor) saw_ctor = true;
    }
  }
  EXPECT_TRUE(saw_record);
  EXPECT_TRUE(saw_method);
  EXPECT_TRUE(saw_ctor) << "FixtureShard(long long) must be ctor-exempt";

  ASSERT_EQ(m.guarded.size(), 1u);
  EXPECT_EQ(m.guarded[0].name, "hits_");
  EXPECT_EQ(m.guarded[0].mutex, "mutex_");
  EXPECT_EQ(m.guarded[0].record, "FixtureShard");

  ASSERT_EQ(m.requires_fns.size(), 1u);
  EXPECT_EQ(m.requires_fns[0].name, "bump");
  EXPECT_EQ(m.requires_fns[0].record, "FixtureShard");
  ASSERT_EQ(m.requires_fns[0].mutexes.size(), 1u);
  EXPECT_EQ(m.requires_fns[0].mutexes[0], "mutex_");

  EXPECT_EQ(m.locks.size(), 2u);  // hits() and record()
  for (const LockSite& l : m.locks) EXPECT_EQ(l.mutex, "mutex_");

  ASSERT_EQ(m.includes.size(), 1u);
  EXPECT_EQ(m.includes[0].target, "util/thread_annotations.hpp");
}

TEST(BacLint, HotPathTagMarksTheEnclosingScopeChain) {
  const auto lines = read_lines(fixture_dir() + "/hot-path-alloc/bad.cpp");
  const auto m = build_file_model("src/algs/policies/fixture.cpp", lines);
  int hot = -1;
  for (std::size_t i = 0; i < m.scopes.size(); ++i)
    if (m.scopes[i].hot_path) hot = static_cast<int>(i);
  ASSERT_GE(hot, 0) << "no scope picked up the hot-path tag";
  EXPECT_TRUE(in_hot_path(m, hot));
  EXPECT_FALSE(in_hot_path(m, 0)) << "file scope must not be hot";
}

// ---------------------------------------------------------------------
// Tier 2: the scope-aware pass table.
// ---------------------------------------------------------------------

TEST(BacLint, PassTableHasFourUniquelyNamedPasses) {
  const auto& passes = default_passes();
  EXPECT_EQ(passes.size(), 4u);
  std::set<std::string> names;
  for (const Pass& p : passes) {
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.summary.empty()) << p.name;
    EXPECT_FALSE(p.hint.empty()) << p.name;
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate " << p.name;
    for (const Rule& r : default_rules())
      EXPECT_NE(r.name, p.name) << "pass shadows a rule name";
  }
  EXPECT_TRUE(names.count("lock-discipline"));
  EXPECT_TRUE(names.count("nondet-iteration"));
  EXPECT_TRUE(names.count("hot-path-alloc"));
  EXPECT_TRUE(names.count("layering"));
}

TEST(BacLint, EveryPassHasAFixturePair) {
  namespace fs = std::filesystem;
  for (const Pass& p : default_passes()) {
    const fs::path dir = fs::path(fixture_dir()) / p.name;
    EXPECT_TRUE(fs::is_regular_file(dir / "bad.cpp")) << p.name;
    EXPECT_TRUE(fs::is_regular_file(dir / "good.cpp")) << p.name;
  }
}

TEST(BacLint, EveryFixtureDirNamesARuleOrPass) {
  // Corpus completeness in the other direction: a directory that names
  // neither a rule nor a pass is dead weight (or a typo that silently
  // unpins a rule). `_`-prefixed dirs are engine-pathology pins.
  namespace fs = std::filesystem;
  std::set<std::string> known;
  for (const Rule& r : default_rules()) known.insert(r.name);
  for (const Pass& p : default_passes()) known.insert(p.name);
  for (const auto& entry : fs::directory_iterator(fixture_dir())) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!name.empty() && name[0] == '_') continue;
    EXPECT_TRUE(known.count(name))
        << "fixture dir '" << name << "' matches no rule or pass";
  }
}

TEST(BacLint, PositivePassFixturesAreFlaggedByTheirPass) {
  for (const Pass& p : default_passes()) {
    const auto lines = read_lines(fixture_dir() + "/" + p.name + "/bad.cpp");
    const auto findings =
        run_passes_on(synthetic_path_for_pass(p.name), lines);
    int hits = 0;
    for (const Finding& f : findings)
      if (f.rule == p.name) {
        ++hits;
        EXPECT_FALSE(f.allowed) << p.name;
        EXPECT_GT(f.line, 0) << p.name;
        EXPECT_EQ(f.hint, p.hint) << p.name;
        EXPECT_FALSE(f.text.empty()) << p.name;
      }
    EXPECT_GE(hits, 1) << "pass '" << p.name
                       << "' missed its positive fixture";
  }
}

TEST(BacLint, NegativePassFixturesPassTheWholePassTable) {
  for (const Pass& p : default_passes()) {
    const auto lines =
        read_lines(fixture_dir() + "/" + p.name + "/good.cpp");
    const auto findings =
        run_passes_on(synthetic_path_for_pass(p.name), lines);
    EXPECT_TRUE(findings.empty())
        << "negative fixture for '" << p.name << "' flagged as '"
        << (findings.empty() ? "" : findings.front().rule) << "' at line "
        << (findings.empty() ? 0 : findings.front().line);
  }
}

TEST(BacLint, MutationDeletingMutexLockFiresLockDiscipline) {
  // The acceptance mutation test: strip every `MutexLock lock(mutex_);`
  // from the clean lock-discipline fixture and the pass MUST fire — if
  // it stays silent, the check is vacuous and the fixture proves
  // nothing.
  const auto lines =
      read_lines(fixture_dir() + "/lock-discipline/good.cpp");
  std::vector<std::string> mutated;
  for (const std::string& l : lines)
    if (l.find("MutexLock lock(mutex_);") == std::string::npos)
      mutated.push_back(l);
  ASSERT_LT(mutated.size(), lines.size()) << "mutation removed nothing";

  const auto clean = run_passes_on("src/server/fixture.cpp", lines);
  EXPECT_TRUE(clean.empty());

  const auto findings = run_passes_on("src/server/fixture.cpp", mutated);
  int hits = 0;
  for (const Finding& f : findings)
    if (f.rule == "lock-discipline") {
      ++hits;
      EXPECT_NE(f.text.find("hits_"), std::string::npos) << f.text;
    }
  EXPECT_GE(hits, 2) << "both unlocked accessors must be flagged";
}

TEST(BacLint, LockDisciplineSeesAnnotationsAcrossFiles) {
  // GUARDED_BY lives in the header; the unlocked access lives in the
  // .cpp. The pass must correlate them through the corpus-wide harvest.
  const std::vector<std::string> header = {
      "#include \"util/thread_annotations.hpp\"",
      "namespace bac {",
      "class FixtureShard {",
      " public:",
      "  long long peek() const;",
      " private:",
      "  mutable Mutex mutex_;",
      "  long long hits_ GUARDED_BY(mutex_) = 0;",
      "};",
      "}  // namespace bac",
  };
  const std::vector<std::string> impl = {
      "#include \"server/fixture.hpp\"",
      "namespace bac {",
      "long long FixtureShard::peek() const { return hits_; }",
      "}  // namespace bac",
  };
  std::vector<FileModel> corpus;
  corpus.push_back(build_file_model("src/server/fixture.hpp", header));
  corpus.push_back(build_file_model("src/server/fixture.cpp", impl));
  const auto findings = run_passes(corpus, default_passes(), {});
  int hits = 0;
  for (const Finding& f : findings)
    if (f.rule == "lock-discipline") {
      ++hits;
      EXPECT_EQ(f.path, "src/server/fixture.cpp");
      EXPECT_EQ(f.line, 3);
    }
  EXPECT_EQ(hits, 1) << "out-of-line unlocked access must be caught";
}

TEST(BacLint, LockDisciplineReadsTheMutexOfATryFirstLock) {
  // MutexLock(mutex, waited) is the try-first form: its mutex is the
  // first argument, not the last.
  const std::vector<std::string> lines = {
      "#include \"util/thread_annotations.hpp\"",
      "namespace bac {",
      "class FixtureShard {",
      " public:",
      "  long long locked() {",
      "    bool waited = false;",
      "    MutexLock lock(mutex_, waited);",
      "    return hits_;",
      "  }",
      "  long long wrong_mutex() {",
      "    bool waited = false;",
      "    MutexLock lock(other_, waited);",
      "    return hits_;",
      "  }",
      " private:",
      "  Mutex mutex_;",
      "  Mutex other_;",
      "  long long hits_ GUARDED_BY(mutex_) = 0;",
      "};",
      "}  // namespace bac",
  };
  const auto findings = run_passes_on("src/server/fixture.cpp", lines);
  int hits = 0;
  for (const Finding& f : findings)
    if (f.rule == "lock-discipline") {
      ++hits;
      EXPECT_EQ(f.line, 13) << f.text;
    }
  EXPECT_EQ(hits, 1) << "only the access under the wrong mutex is unlocked";
}

TEST(BacLint, PassInlineSuppressionWaivesLikeARule) {
  // Passes share the rule suppression pipeline: an inline
  // `baclint: allow(<pass>)` downgrades the finding but keeps it in
  // the report.
  std::vector<std::string> lines =
      read_lines(fixture_dir() + "/layering/bad.cpp");
  for (std::string& l : lines)
    if (l.find("server/shard.hpp") != std::string::npos)
      l += "  // baclint: allow(layering)";
  const auto findings = run_passes_on("src/core/fixture.cpp", lines);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_TRUE(findings[0].allowed);
  EXPECT_EQ(findings[0].allow_reason, "inline suppression");
  EXPECT_EQ(count_violations(findings), 0);
}

TEST(BacLint, LayeringGraphIsTopologicallyOrderedAndResolvesPaths) {
  const auto& layers = layering_graph();
  EXPECT_GE(layers.size(), 14u);
  std::set<std::string> seen;
  for (const Layer& l : layers) {
    for (const std::string& d : l.deps)
      EXPECT_TRUE(seen.count(d))
          << l.name << " depends on " << d << " which is not declared "
          << "earlier — the graph must stay topologically ordered";
    EXPECT_TRUE(seen.insert(l.name).second) << "duplicate layer " << l.name;
  }
  EXPECT_EQ(layer_of_path("src/core/cache.cpp"), "core");
  EXPECT_EQ(layer_of_path("src/algs/policies/lru.cpp"), "algs");
  EXPECT_EQ(layer_of_path("src/util/rng.hpp"), "util");
  EXPECT_EQ(layer_of_path("tools/baclint.cpp"), "tools");
  EXPECT_EQ(layer_of_path("bench/bench_main.cpp"), "bench");
  EXPECT_EQ(layer_of_path("tests/test_baclint.cpp"), "tests");
  EXPECT_EQ(layer_of_path("third_party/other.cpp"), "");
  // Every declared src layer must resolve back to itself.
  for (const Layer& l : layers) {
    if (l.name != "tools" && l.name != "bench" && l.name != "tests") {
      EXPECT_EQ(layer_of_path("src/" + l.name + "/x.cpp"), l.name);
    }
  }
}

// ---------------------------------------------------------------------
// Reports: v2 JSON and SARIF.
// ---------------------------------------------------------------------

TEST(BacLint, V2JsonReportParsesAndCarriesBothTables) {
  const std::vector<std::string> lines = {
      "std::mutex a_;",
      "std::mutex legacy_;  // baclint: allow(raw-mutex)",
  };
  const auto findings =
      lint_lines("src/server/x.cpp", lines, default_rules(), {});
  ASSERT_EQ(findings.size(), 2u);
  std::ostringstream os;
  write_json_report(os, default_rules(), default_passes(), findings, 2);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.string_or("bench", ""), "baclint");
  const JsonValue* rules = doc.find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->items.size(), default_rules().size());
  const JsonValue* passes = doc.find("passes");
  ASSERT_NE(passes, nullptr);
  EXPECT_EQ(passes->items.size(), default_passes().size());
  const JsonValue* agg = doc.find("aggregate");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->number_or("rules", -1),
            static_cast<double>(default_rules().size()));
  EXPECT_EQ(agg->number_or("passes", -1), 4.0);
  EXPECT_EQ(agg->number_or("violations", -1), 1.0);
  EXPECT_EQ(agg->number_or("allowed", -1), 1.0);
}

TEST(BacLint, SarifReportIsWellFormedAndMarksSuppressions) {
  const std::vector<std::string> lines = {
      "std::mutex a_;",
      "std::mutex legacy_;  // baclint: allow(raw-mutex)",
  };
  const auto findings =
      lint_lines("./src/server/x.cpp", lines, default_rules(), {});
  ASSERT_EQ(findings.size(), 2u);
  std::ostringstream os;
  write_sarif_report(os, default_rules(), default_passes(), findings);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.string_or("version", ""), "2.1.0");
  const JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items.size(), 1u);
  const JsonValue& run = runs->items[0];
  const JsonValue* tool = run.find("tool");
  ASSERT_NE(tool, nullptr);
  const JsonValue* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->string_or("name", ""), "baclint");
  const JsonValue* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  EXPECT_EQ(rules->items.size(),
            default_rules().size() + default_passes().size());
  for (const JsonValue& r : rules->items)
    EXPECT_FALSE(r.string_or("id", "").empty());

  const JsonValue* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->items.size(), 2u);
  const JsonValue& open = results->items[0];
  EXPECT_EQ(open.string_or("ruleId", ""), "raw-mutex");
  EXPECT_EQ(open.string_or("level", ""), "error");
  EXPECT_EQ(open.find("suppressions"), nullptr);
  const JsonValue* loc = open.find("locations");
  ASSERT_NE(loc, nullptr);
  ASSERT_EQ(loc->items.size(), 1u);
  const JsonValue* phys = loc->items[0].find("physicalLocation");
  ASSERT_NE(phys, nullptr);
  const JsonValue* art = phys->find("artifactLocation");
  ASSERT_NE(art, nullptr);
  EXPECT_EQ(art->string_or("uri", ""), "src/server/x.cpp")
      << "leading ./ must be stripped for code scanning";

  const JsonValue& waived = results->items[1];
  EXPECT_EQ(waived.string_or("level", ""), "note");
  const JsonValue* sup = waived.find("suppressions");
  ASSERT_NE(sup, nullptr);
  ASSERT_EQ(sup->items.size(), 1u);
  EXPECT_EQ(sup->items[0].string_or("kind", ""), "inSource");
  EXPECT_EQ(sup->items[0].string_or("justification", ""),
            "inline suppression");

  // ruleIndex must point into the combined rules-then-passes list.
  const double idx = open.number_or("ruleIndex", -1);
  ASSERT_GE(idx, 0);
  EXPECT_EQ(rules->items[static_cast<std::size_t>(idx)].string_or("id", ""),
            "raw-mutex");
}

}  // namespace
}  // namespace bac::lint
