#include "lint/passes.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>
#include <string_view>

#include "util/json.hpp"

namespace bac::lint {

namespace {

// The linter's home turf never gets passed through the passes either:
// src/lint/ and the baclint test spell violating constructs on purpose,
// and the fixture corpus exists to violate rules.
const std::vector<std::string> kPassExclude = {"lint/", "lint_fixtures/",
                                               "test_baclint.cpp"};

const std::vector<Pass>& pass_table() {
  static const std::vector<Pass> passes = {
      {"lock-discipline",
       "every access to a GUARDED_BY member must hold its mutex — a "
       "MutexLock for it on the scope chain, or a REQUIRES annotation on "
       "the enclosing function; this is the portable TSA-lite that runs "
       "on the GCC lanes where clang -Wthread-safety is unavailable",
       "wrap the access in `MutexLock lock(<mutex>);` or annotate the "
       "function with REQUIRES(<mutex>)",
       {},
       kPassExclude},
      {"nondet-iteration",
       "iterating an unordered container into a stream/JSON writer or a "
       "+= accumulator makes output depend on hash order, and ordered "
       "containers keyed by pointer iterate in address order — both "
       "break the bit-identical metrics/golden contracts",
       "collect entries into a vector and sort by a stable key, or key "
       "the container by a value type (std::map over ids)",
       {},
       kPassExclude},
      {"layering",
       "#include edges must follow the declared architecture DAG "
       "(util -> lint/obs -> core -> trace/lp/server -> submodular -> "
       "algs -> driver -> verify -> tools/bench/tests); an upward or "
       "sideways include couples layers the build keeps separate",
       "depend downward only: move the shared declaration into a lower "
       "layer instead of including across",
       {},
       kPassExclude},
  };
  return passes;
}

const std::vector<Layer>& layer_table() {
  static const std::vector<Layer> layers = {
      {"util", {}},
      {"lint", {"util"}},
      {"obs", {"util"}},
      {"core", {"util", "obs"}},
      {"trace", {"util", "obs", "core"}},
      {"lp", {"util", "obs", "core"}},
      {"server", {"util", "obs", "core"}},
      {"submodular", {"util", "obs", "core", "lp"}},
      {"algs", {"util", "obs", "core", "lp", "submodular"}},
      {"driver", {"util", "obs", "core", "trace", "lp", "submodular", "algs"}},
      {"verify",
       {"util", "obs", "core", "trace", "lp", "submodular", "algs", "server"}},
      {"tools",
       {"util", "lint", "obs", "core", "trace", "lp", "server", "submodular",
        "algs", "driver", "verify"}},
      {"bench",
       {"util", "lint", "obs", "core", "trace", "lp", "server", "submodular",
        "algs", "driver", "verify"}},
      {"tests",
       {"util", "lint", "obs", "core", "trace", "lp", "server", "submodular",
        "algs", "driver", "verify"}},
  };
  return layers;
}

const Layer* find_layer(const std::string& name) {
  for (const Layer& l : layer_table()) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

bool is_code(const Token& t) { return t.kind != Tok::Comment && !t.preproc; }

void emit(std::vector<Finding>& out, const FileModel& m, const Pass& p,
          int line, const std::vector<AllowEntry>& allowlist) {
  Finding f;
  f.rule = p.name;
  f.path = m.path;
  f.line = line;
  if (line >= 1 && static_cast<std::size_t>(line) <= m.lines.size()) {
    f.text = trim_line(m.lines[static_cast<std::size_t>(line - 1)]);
  }
  f.hint = p.hint;
  const std::string raw =
      (line >= 1 && static_cast<std::size_t>(line) <= m.lines.size())
          ? m.lines[static_cast<std::size_t>(line - 1)]
          : std::string();
  apply_suppressions(f, raw, allowlist);
  out.push_back(std::move(f));
}

/// Code-token index list for one model (shared by several passes).
std::vector<std::size_t> code_list(const FileModel& m) {
  std::vector<std::size_t> cl;
  cl.reserve(m.tokens.size());
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    if (is_code(m.tokens[i])) cl.push_back(i);
  }
  return cl;
}

// ---------------------------------------------------------------------
// Pass 1: lock-discipline.
//
// Harvest GUARDED_BY members and REQUIRES functions from the whole
// corpus (annotations live in headers, accesses in .cpp files), then
// check every identifier access: the enclosing function must either
// carry a matching REQUIRES (declaration or definition site) or have a
// MutexLock for the right mutex on the scope chain strictly before the
// access. Constructors/destructors are exempt (exclusive access by
// construction — the same rule clang TSA applies), and lambdas are a
// conservative boundary: accesses inside them are not checked.
// ---------------------------------------------------------------------
void run_lock_discipline(const std::vector<FileModel>& corpus, const Pass& p,
                         const std::vector<AllowEntry>& allowlist,
                         std::vector<Finding>& out) {
  std::map<std::string, std::vector<const GuardedVar*>> guards;
  std::set<std::pair<std::string, std::string>> requires_any;  // (record, fn)
  std::map<std::pair<std::string, std::string>, std::set<std::string>> requires_mx;
  for (const FileModel& m : corpus) {
    for (const GuardedVar& g : m.guarded) guards[g.name].push_back(&g);
    for (const RequiresFn& r : m.requires_fns) {
      auto key = std::make_pair(r.record, r.name);
      requires_any.insert(key);
      for (const std::string& mx : r.mutexes) requires_mx[key].insert(mx);
    }
  }
  if (guards.empty()) return;

  for (const FileModel& m : corpus) {
    if (!path_selected(m.path, p.include, p.exclude)) continue;
    std::map<int, std::vector<const LockSite*>> locks_by_scope;
    for (const LockSite& l : m.locks) locks_by_scope[l.scope].push_back(&l);

    const std::vector<std::size_t> cl = code_list(m);
    std::set<std::pair<int, std::string>> reported;
    for (std::size_t ci = 0; ci < cl.size(); ++ci) {
      const std::size_t ti = cl[ci];
      const Token& t = m.tokens[ti];
      if (t.kind != Tok::Ident) continue;
      auto git = guards.find(t.text);
      if (git == guards.end()) continue;
      // Skip the annotated declaration itself.
      if (ci + 1 < cl.size()) {
        const Token& nx = m.tokens[cl[ci + 1]];
        if (nx.kind == Tok::Ident &&
            (nx.text == "GUARDED_BY" || nx.text == "PT_GUARDED_BY"))
          continue;
      }
      const int sc = m.scope_of_tok[ti];
      const int fn = enclosing_function(m, sc);
      if (fn < 0) continue;  // declarations, default initializers
      const Scope& F = m.scopes[static_cast<std::size_t>(fn)];
      if (F.kind == Scope::Kind::Lambda) continue;  // boundary: no claim
      if (F.ctor_dtor) continue;

      const GuardedVar* g = nullptr;
      for (const GuardedVar* cand : git->second) {
        if (!cand->record.empty()) {
          if (cand->record == F.record) {
            g = cand;
            break;
          }
        } else if (cand->path == m.path && F.record.empty()) {
          g = cand;  // file-scope variable, free function in the same file
          break;
        }
      }
      if (!g) continue;

      const auto key = std::make_pair(F.record, F.name);
      auto rit = requires_mx.find(key);
      if (rit != requires_mx.end() && rit->second.count(g->mutex)) continue;
      if (requires_any.count(key) && rit == requires_mx.end()) continue;

      bool held = false;
      for (int s = sc; s >= 0 && !held; s = m.scopes[static_cast<std::size_t>(s)].parent) {
        auto lit = locks_by_scope.find(s);
        if (lit != locks_by_scope.end()) {
          for (const LockSite* l : lit->second) {
            if (l->tok < ti && l->mutex == g->mutex) {
              held = true;
              break;
            }
          }
        }
        if (s == fn) break;
      }
      if (held) continue;
      if (reported.insert({t.line, t.text}).second) {
        emit(out, m, p, t.line, allowlist);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Pass 2: nondet-iteration.
//
// Two shapes: (a) a range-for over an unordered container whose body
// writes to a stream (`<<`), calls a formatting function, or runs a
// `+=` accumulation — iteration order leaks into output or a float sum;
// (b) an ordered map/set keyed by a pointer type — deterministic within
// a run but ordered by allocation address, so output differs run to run.
// ---------------------------------------------------------------------
void run_nondet_iteration(const FileModel& m, const Pass& p,
                          const std::vector<AllowEntry>& allowlist,
                          std::vector<Finding>& out) {
  std::set<std::string> unordered_vars;
  for (const ContainerVar& v : m.node_containers) {
    if (v.unordered) unordered_vars.insert(v.name);
    if (!v.unordered && v.pointer_key) emit(out, m, p, v.line, allowlist);
  }

  const std::vector<std::size_t> cl = code_list(m);
  auto tok = [&](std::size_t j) -> const Token& { return m.tokens[cl[j]]; };
  const std::size_t n = cl.size();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!(tok(i).kind == Tok::Ident && tok(i).text == "for")) continue;
    if (!(tok(i + 1).kind == Tok::Punct && tok(i + 1).text == "(")) continue;
    // Find the matching ')' and a single ':' at paren depth 1.
    int depth = 0;
    std::size_t colon = 0, close = 0;
    for (std::size_t j = i + 1; j < n && j < i + 256; ++j) {
      const Token& t = tok(j);
      if (t.kind != Tok::Punct) continue;
      if (t.text == "(") ++depth;
      if (t.text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (t.text == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (close == 0 || colon == 0) continue;  // classic for, or unparsable
    bool over_unordered = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      const Token& t = tok(j);
      if (t.kind != Tok::Ident) continue;
      if (unordered_vars.count(t.text) ||
          t.text.rfind("unordered_", 0) == 0) {
        over_unordered = true;
        break;
      }
    }
    if (!over_unordered) continue;
    // Body: the following brace scope, or the statement up to ';'.
    std::size_t body_begin = close + 1, body_end = body_begin;
    if (body_begin < n && tok(body_begin).kind == Tok::Punct &&
        tok(body_begin).text == "{") {
      const std::size_t open_ti = cl[body_begin];
      for (const Scope& s : m.scopes) {
        if (s.open_tok == open_ti) {
          // Convert the closing token index back into a code position.
          std::size_t j = body_begin;
          while (j < n && cl[j] < s.close_tok) ++j;
          body_end = j;
          break;
        }
      }
    } else {
      std::size_t j = body_begin;
      while (j < n && !(tok(j).kind == Tok::Punct && tok(j).text == ";")) ++j;
      body_end = j;
    }
    bool hazard = false;
    for (std::size_t j = body_begin; j + 1 <= body_end && j < n; ++j) {
      const Token& t = tok(j);
      if (t.kind == Tok::Punct && j + 1 < n) {
        const Token& u = tok(j + 1);
        if (t.text == "<" && u.kind == Tok::Punct && u.text == "<" &&
            u.line == t.line && u.col == t.col + 1) {
          hazard = true;  // operator<<
          break;
        }
        if (t.text == "+" && u.kind == Tok::Punct && u.text == "=" &&
            u.line == t.line && u.col == t.col + 1) {
          hazard = true;  // accumulation
          break;
        }
      }
      if (t.kind == Tok::Ident &&
          (t.text == "printf" || t.text == "fprintf" || t.text == "snprintf" ||
           t.text == "sprintf" || t.text == "write_json_string" ||
           t.text == "write_json_number" || t.text == "append")) {
        hazard = true;
        break;
      }
    }
    if (hazard) emit(out, m, p, tok(i).line, allowlist);
  }
}

// ---------------------------------------------------------------------
// Pass 3: layering.
// ---------------------------------------------------------------------
void run_layering(const FileModel& m, const Pass& p,
                  const std::vector<AllowEntry>& allowlist,
                  std::vector<Finding>& out) {
  const std::string layer = layer_of_path(m.path);
  if (layer.empty()) return;
  const Layer* l = find_layer(layer);
  if (!l) return;
  for (const IncludeDirective& inc : m.includes) {
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;  // local header
    const std::string first = inc.target.substr(0, slash);
    if (first == layer) continue;
    if (!find_layer(first)) continue;  // not a layer prefix (e.g. vendored)
    bool ok = false;
    for (const std::string& d : l->deps) {
      if (d == first) {
        ok = true;
        break;
      }
    }
    if (!ok) emit(out, m, p, inc.line, allowlist);
  }
}

}  // namespace

const std::vector<Pass>& default_passes() { return pass_table(); }
const std::vector<Layer>& layering_graph() { return layer_table(); }

std::string layer_of_path(const std::string& path) {
  // src/<layer>/... wins; otherwise the tools/bench/tests trees.
  const std::size_t s = path.rfind("src/");
  if (s != std::string::npos) {
    const std::size_t from = s + 4;
    const std::size_t slash = path.find('/', from);
    if (slash != std::string::npos) {
      const std::string layer = path.substr(from, slash - from);
      if (find_layer(layer)) return layer;
    }
  }
  for (const char* tree : {"tools/", "bench/", "tests/"}) {
    if (path.find(tree) != std::string::npos) {
      std::string t(tree);
      t.pop_back();
      return t;
    }
  }
  return std::string();
}

std::vector<Finding> run_passes(const std::vector<FileModel>& corpus,
                                const std::vector<Pass>& passes,
                                const std::vector<AllowEntry>& allowlist) {
  std::vector<Finding> out;
  for (const Pass& p : passes) {
    if (p.name == "lock-discipline") {
      run_lock_discipline(corpus, p, allowlist, out);
      continue;
    }
    for (const FileModel& m : corpus) {
      if (!path_selected(m.path, p.include, p.exclude)) continue;
      if (p.name == "nondet-iteration") run_nondet_iteration(m, p, allowlist, out);
      if (p.name == "layering") run_layering(m, p, allowlist, out);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return out;
}

void write_json_report(std::ostream& os, const std::vector<Rule>& rules,
                       const std::vector<Pass>& passes,
                       const std::vector<Finding>& findings,
                       long long files_scanned) {
  os << "{\n  \"bench\": \"baclint\",\n  \"rules\": [\n";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    os << "    {\"name\": ";
    write_json_string(os, rules[i].name);
    os << ", \"summary\": ";
    write_json_string(os, rules[i].summary);
    os << ", \"hint\": ";
    write_json_string(os, rules[i].hint);
    os << "}" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"passes\": [\n";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    os << "    {\"name\": ";
    write_json_string(os, passes[i].name);
    os << ", \"summary\": ";
    write_json_string(os, passes[i].summary);
    os << ", \"hint\": ";
    write_json_string(os, passes[i].hint);
    os << "}" << (i + 1 < passes.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"files_scanned\": " << files_scanned
     << ",\n  \"findings\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "    {\"rule\": ";
    write_json_string(os, f.rule);
    os << ", \"path\": ";
    write_json_string(os, f.path);
    os << ", \"line\": " << f.line << ", \"text\": ";
    write_json_string(os, f.text);
    os << ", \"allowed\": " << (f.allowed ? "true" : "false");
    if (f.allowed) {
      os << ", \"reason\": ";
      write_json_string(os, f.allow_reason);
    }
    os << "}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  const int violations = count_violations(findings);
  os << "  ],\n  \"aggregate\": {\"rules\": " << rules.size()
     << ", \"passes\": " << passes.size()
     << ", \"findings\": " << findings.size()
     << ", \"violations\": " << violations << ", \"allowed\": "
     << (static_cast<long long>(findings.size()) - violations) << "}\n}\n";
}

}  // namespace bac::lint
