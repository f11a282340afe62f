#include "lint/model.hpp"

#include <array>
#include <string_view>

namespace bac::lint {

namespace {

bool is_code(const Token& t) { return t.kind != Tok::Comment && !t.preproc; }

bool is_annotation_macro(std::string_view s) {
  static constexpr std::array<std::string_view, 14> kMacros = {
      "CAPABILITY",       "SCOPED_CAPABILITY", "GUARDED_BY",
      "PT_GUARDED_BY",    "ACQUIRED_BEFORE",   "ACQUIRED_AFTER",
      "REQUIRES",         "REQUIRES_SHARED",   "ACQUIRE",
      "ACQUIRE_SHARED",   "RELEASE",           "RELEASE_SHARED",
      "TRY_ACQUIRE",      "EXCLUDES",
  };
  for (auto m : kMacros) {
    if (s == m) return true;
  }
  return false;
}

bool is_control_keyword(std::string_view s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" || s == "catch";
}

bool is_trailing_modifier(std::string_view s) {
  return s == "const" || s == "noexcept" || s == "override" || s == "final" ||
         s == "mutable" || s == "volatile" || s == "try";
}

struct Classification {
  Scope::Kind kind = Scope::Kind::Block;
  std::string name;
  std::string record;
  bool dtor = false;
};

/// Walks the code-token list backwards from position `k` to find the
/// matching `(` for the `)` at `k`. Returns -1 when unmatched nearby.
int match_paren_back(const std::vector<Token>& toks,
                     const std::vector<std::size_t>& cl, int k) {
  int depth = 0;
  for (int j = k, steps = 0; j >= 0 && steps < 512; --j, ++steps) {
    const Token& t = toks[cl[static_cast<std::size_t>(j)]];
    if (t.kind != Tok::Punct) continue;
    if (t.text == ")") ++depth;
    if (t.text == "(") {
      --depth;
      if (depth == 0) return j;
    }
  }
  return -1;
}

/// Classify the scope opened by a `{` whose preceding code token sits at
/// position `start` in the code list. Uncertainty degrades to Block.
Classification classify_open_brace(const std::vector<Token>& toks,
                                   const std::vector<std::size_t>& cl, int start) {
  auto tok = [&](int j) -> const Token& {
    return toks[cl[static_cast<std::size_t>(j)]];
  };

  // Phase 1: skip trailing modifiers / annotation groups / member-init
  // lists until the decisive token appears.
  int k = start;
  int steps = 0;
  while (k >= 0 && steps++ < 512) {
    const Token& t = tok(k);
    if (t.kind == Tok::Ident) {
      const std::string& s = t.text;
      if (is_trailing_modifier(s)) {
        --k;
        continue;
      }
      if (s == "do" || s == "else") return {};
      break;  // bare identifier: namespace / record / brace-init — phase 2
    }
    if (t.kind == Tok::Punct) {
      const std::string& s = t.text;
      if (s == "," || s == ":") {
        // Member-init-list separator (or a label; phase 2 rejects those).
        --k;
        continue;
      }
      if (s == "]") return {Scope::Kind::Lambda, "<lambda>", "", false};
      if (s == ")") {
        int j = match_paren_back(toks, cl, k);
        if (j <= 0) return {};
        int h = j - 1;
        const Token& th = tok(h);
        if (th.kind == Tok::Punct && th.text == "]") {
          return {Scope::Kind::Lambda, "<lambda>", "", false};
        }
        if (th.kind != Tok::Ident) return {};
        const std::string& nm = th.text;
        if (is_control_keyword(nm)) return {};
        if (is_annotation_macro(nm)) {
          k = h - 1;  // skip the macro group, keep scanning left
          continue;
        }
        // Qualified-name walk: `[~] [Qual ::]* name ( ... )`.
        bool dtor = false;
        std::string record;
        int g = h - 1;
        if (g >= 0 && tok(g).kind == Tok::Punct && tok(g).text == "~") {
          dtor = true;
          --g;
        }
        while (g >= 1 && tok(g).kind == Tok::Punct && tok(g).text == "::" &&
               tok(g - 1).kind == Tok::Ident) {
          if (record.empty()) record = tok(g - 1).text;  // innermost qualifier
          g -= 2;
        }
        if (g >= 0) {
          const Token& tp = tok(g);
          if (tp.kind == Tok::Punct && (tp.text == "," || tp.text == ":")) {
            // `name(args)` was a member-init-list item; resume left of it.
            k = g;
            continue;
          }
        }
        return {Scope::Kind::Function, nm, record, dtor};
      }
      return {};  // '=', ';', '<', '>', '&', '*', '(', '{', '}', '->', ...
    }
    return {};  // number / string before '{'
  }
  if (k < 0) return {};

  // Phase 2: `{` preceded by a bare identifier — look left for a
  // namespace/class keyword within the current declaration.
  const std::string head = tok(k).text;
  if (head == "namespace") return {Scope::Kind::Namespace, "", "", false};
  if (head == "class" || head == "struct" || head == "union" || head == "enum") {
    return {Scope::Kind::Record, "", "", false};  // anonymous
  }
  for (int g = k, back = 0; g >= 0 && back++ < 64; --g) {
    const Token& t = tok(g);
    if (t.kind == Tok::Ident) {
      const std::string& s = t.text;
      if (s == "namespace") return {Scope::Kind::Namespace, head, "", false};
      if (s == "class" || s == "struct" || s == "union" || s == "enum") {
        // Name = first plain identifier after the keyword, skipping
        // annotation-macro groups (e.g. `class CAPABILITY("mutex") Mutex`)
        // and `final`.
        for (int f = g + 1; f <= k; ++f) {
          const Token& tf = tok(f);
          if (tf.kind != Tok::Ident) continue;
          if (tf.text == "final" || tf.text == "class" || tf.text == "struct") continue;
          if (is_annotation_macro(tf.text) && f + 1 <= k &&
              tok(f + 1).kind == Tok::Punct && tok(f + 1).text == "(") {
            int depth = 0;
            int f2 = f + 1;
            for (; f2 <= k; ++f2) {
              if (tok(f2).kind != Tok::Punct) continue;
              if (tok(f2).text == "(") ++depth;
              if (tok(f2).text == ")" && --depth == 0) break;
            }
            f = f2;
            continue;
          }
          return {Scope::Kind::Record, tf.text, "", false};
        }
        return {Scope::Kind::Record, "", "", false};
      }
      if (s == "do" || s == "else" || s == "try" || s == "return") return {};
      continue;
    }
    if (t.kind == Tok::Punct) {
      const std::string& s = t.text;
      if (s == ";" || s == "}" || s == "{" || s == ")" || s == "(" || s == "=" ||
          s == "[") {
        return {};  // boundary without a keyword: brace-init or statement
      }
      continue;  // "::", ":", ",", "<", ">", "&", "*" — base lists, templates
    }
    continue;  // numbers/strings inside template args
  }
  return {};
}

}  // namespace

int enclosing_function(const FileModel& m, int scope) {
  for (int s = scope; s >= 0; s = m.scopes[static_cast<std::size_t>(s)].parent) {
    Scope::Kind k = m.scopes[static_cast<std::size_t>(s)].kind;
    if (k == Scope::Kind::Function || k == Scope::Kind::Lambda) return s;
  }
  return -1;
}

bool in_hot_path(const FileModel& m, int scope) {
  for (int s = scope; s >= 0; s = m.scopes[static_cast<std::size_t>(s)].parent) {
    if (m.scopes[static_cast<std::size_t>(s)].hot_path) return true;
  }
  return false;
}

FileModel build_file_model(std::string path, std::vector<std::string> lines) {
  FileModel m;
  m.path = std::move(path);
  m.lines = std::move(lines);
  m.tokens = tokenize(m.lines);
  m.scope_of_tok.assign(m.tokens.size(), 0);

  Scope file;
  file.kind = Scope::Kind::File;
  file.parent = -1;
  file.open_tok = 0;
  file.close_tok = m.tokens.size();
  file.open_line = 1;
  file.close_line = static_cast<int>(m.lines.size());
  m.scopes.push_back(file);

  std::vector<int> stack = {0};
  std::vector<std::size_t> code;  // indices of code tokens seen so far
  code.reserve(m.tokens.size());

  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    const Token& t = m.tokens[i];
    if (!is_code(t)) {
      m.scope_of_tok[i] = stack.back();
      continue;
    }
    if (t.kind == Tok::Punct && t.text == "{") {
      Classification c =
          classify_open_brace(m.tokens, code, static_cast<int>(code.size()) - 1);
      Scope s;
      s.kind = c.kind;
      s.name = c.name;
      s.record = c.record;
      s.parent = stack.back();
      s.open_tok = i;
      s.close_tok = m.tokens.size();
      s.open_line = t.line;
      s.close_line = static_cast<int>(m.lines.size());
      if (s.kind == Scope::Kind::Function) {
        if (s.record.empty()) {
          // In-class definition: the owning record is the enclosing one.
          for (int p = s.parent; p >= 0;
               p = m.scopes[static_cast<std::size_t>(p)].parent) {
            const Scope& ps = m.scopes[static_cast<std::size_t>(p)];
            if (ps.kind == Scope::Kind::Record) {
              s.record = ps.name;
              break;
            }
            if (ps.kind == Scope::Kind::Function || ps.kind == Scope::Kind::Lambda) {
              break;  // local struct boundary not crossed
            }
          }
        }
        s.ctor_dtor = c.dtor || (!s.record.empty() && s.name == s.record);
      }
      int idx = static_cast<int>(m.scopes.size());
      m.scopes.push_back(s);
      stack.push_back(idx);
      m.scope_of_tok[i] = idx;  // the brace belongs to the scope it opens
    } else if (t.kind == Tok::Punct && t.text == "}") {
      m.scope_of_tok[i] = stack.back();
      if (stack.size() > 1) {
        Scope& s = m.scopes[static_cast<std::size_t>(stack.back())];
        s.close_tok = i;
        s.close_line = t.line;
        stack.pop_back();
      }
    } else {
      m.scope_of_tok[i] = stack.back();
    }
    code.push_back(i);
  }

  // --- hot-path tags: a comment anywhere inside a scope marks it ---
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    const Token& t = m.tokens[i];
    if (t.kind == Tok::Comment &&
        t.text.find("baclint: hot-path") != std::string::npos) {
      m.scopes[static_cast<std::size_t>(m.scope_of_tok[i])].hot_path = true;
    }
  }

  // --- declaration harvest over code tokens ---
  std::vector<std::size_t> cl;
  cl.reserve(m.tokens.size());
  for (std::size_t i = 0; i < m.tokens.size(); ++i) {
    if (is_code(m.tokens[i])) cl.push_back(i);
  }
  auto tok = [&](int j) -> const Token& {
    return m.tokens[cl[static_cast<std::size_t>(j)]];
  };
  auto enclosing_record_name = [&](std::size_t ti) -> std::string {
    for (int s = m.scope_of_tok[ti]; s >= 0;
         s = m.scopes[static_cast<std::size_t>(s)].parent) {
      if (m.scopes[static_cast<std::size_t>(s)].kind == Scope::Kind::Record) {
        return m.scopes[static_cast<std::size_t>(s)].name;
      }
    }
    return std::string();
  };
  // Collect comma-separated argument tails inside `(...)` starting at
  // code position `open` (must point at '('); returns the last
  // identifier of each argument. Returns the code position after ')'.
  auto collect_macro_args = [&](int open, std::vector<std::string>& out) -> int {
    int depth = 0;
    std::string last_ident;
    int j = open;
    for (int steps = 0; j < static_cast<int>(cl.size()) && steps < 256;
         ++j, ++steps) {
      const Token& t = tok(j);
      if (t.kind == Tok::Punct) {
        if (t.text == "(") {
          ++depth;
          continue;
        }
        if (t.text == ")") {
          --depth;
          if (depth == 0) {
            if (!last_ident.empty()) out.push_back(last_ident);
            return j + 1;
          }
          continue;
        }
        if (t.text == "," && depth == 1) {
          if (!last_ident.empty()) out.push_back(last_ident);
          last_ident.clear();
          continue;
        }
      }
      if (t.kind == Tok::Ident && depth >= 1) last_ident = t.text;
    }
    return j;
  };

  static constexpr std::array<std::string_view, 8> kNodeContainers = {
      "map", "set", "multimap", "multiset",
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

  const int n = static_cast<int>(cl.size());
  for (int p = 0; p < n; ++p) {
    const Token& t = tok(p);
    if (t.kind != Tok::Ident) continue;
    const std::string& s = t.text;

    if ((s == "GUARDED_BY" || s == "PT_GUARDED_BY") && p > 0 && p + 1 < n &&
        tok(p + 1).kind == Tok::Punct && tok(p + 1).text == "(") {
      const Token& prev = tok(p - 1);
      if (prev.kind == Tok::Ident) {
        std::vector<std::string> args;
        collect_macro_args(p + 1, args);
        if (!args.empty()) {
          GuardedVar g;
          g.record = enclosing_record_name(cl[static_cast<std::size_t>(p)]);
          g.name = prev.text;
          g.mutex = args.back();
          g.path = m.path;
          g.line = prev.line;
          m.guarded.push_back(std::move(g));
        }
      }
      continue;
    }

    if ((s == "REQUIRES" || s == "REQUIRES_SHARED") && p > 0 && p + 1 < n &&
        tok(p + 1).kind == Tok::Punct && tok(p + 1).text == "(") {
      // `fn(...) REQUIRES(m)`: walk back over the parameter list.
      if (tok(p - 1).kind == Tok::Punct && tok(p - 1).text == ")") {
        int open = match_paren_back(m.tokens, cl, p - 1);
        if (open > 0 && tok(open - 1).kind == Tok::Ident) {
          RequiresFn r;
          r.name = tok(open - 1).text;
          int g = open - 2;
          if (g >= 0 && tok(g).kind == Tok::Punct && tok(g).text == "~") --g;
          if (g >= 1 && tok(g).kind == Tok::Punct && tok(g).text == "::" &&
              tok(g - 1).kind == Tok::Ident) {
            r.record = tok(g - 1).text;
          } else {
            r.record = enclosing_record_name(cl[static_cast<std::size_t>(p)]);
          }
          collect_macro_args(p + 1, r.mutexes);
          if (!r.mutexes.empty()) m.requires_fns.push_back(std::move(r));
        }
      }
      continue;
    }

    if (s == "MutexLock" && p + 2 < n && tok(p + 1).kind == Tok::Ident &&
        tok(p + 2).kind == Tok::Punct && tok(p + 2).text == "(") {
      std::vector<std::string> args;
      collect_macro_args(p + 2, args);
      if (!args.empty()) {
        LockSite l;
        l.scope = m.scope_of_tok[cl[static_cast<std::size_t>(p)]];
        l.tok = cl[static_cast<std::size_t>(p)];
        l.mutex = args.front();  // (mutex) or try-first (mutex, waited)
        l.line = t.line;
        m.locks.push_back(std::move(l));
      }
      continue;
    }

    // std::map / std::unordered_map / ... declarations.
    bool is_node = false;
    bool unordered = false;
    for (auto c : kNodeContainers) {
      if (s == c) {
        is_node = true;
        unordered = s.rfind("unordered_", 0) == 0;
        break;
      }
    }
    if (is_node && p >= 2 && tok(p - 1).kind == Tok::Punct &&
        tok(p - 1).text == "::" && tok(p - 2).kind == Tok::Ident &&
        tok(p - 2).text == "std" && p + 1 < n && tok(p + 1).kind == Tok::Punct &&
        tok(p + 1).text == "<") {
      int depth = 0;
      int close = -1;
      bool ptr_key = false;
      bool in_first_arg = true;
      std::string last_in_first;
      for (int j = p + 1, steps = 0; j < n && steps < 256; ++j, ++steps) {
        const Token& tj = tok(j);
        if (tj.kind != Tok::Punct) continue;
        if (tj.text == "<") ++depth;
        if (tj.text == ">") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (tj.text == "," && depth == 1 && in_first_arg) {
          in_first_arg = false;
          ptr_key = last_in_first == "*";
        }
        if (in_first_arg && depth >= 1) last_in_first = tj.text;
      }
      if (close > 0) {
        if (in_first_arg) ptr_key = last_in_first == "*";  // std::set<T*>
        int j = close + 1;
        while (j < n && tok(j).kind == Tok::Punct &&
               (tok(j).text == "&" || tok(j).text == "*")) {
          ++j;
        }
        if (j < n && tok(j).kind == Tok::Ident) {
          ContainerVar v;
          v.name = tok(j).text;
          v.unordered = unordered;
          v.pointer_key = ptr_key;
          v.line = tok(j).line;
          v.scope = m.scope_of_tok[cl[static_cast<std::size_t>(j)]];
          m.node_containers.push_back(std::move(v));
        }
      }
      continue;
    }

    if (s == "include" && t.preproc) continue;  // handled below over all tokens
  }

  // --- #include extraction (preproc tokens, quoted form only) ---
  for (std::size_t i = 0; i + 2 < m.tokens.size(); ++i) {
    const Token& a = m.tokens[i];
    if (!(a.preproc && a.kind == Tok::Punct && a.text == "#")) continue;
    const Token& b = m.tokens[i + 1];
    const Token& c = m.tokens[i + 2];
    if (b.kind == Tok::Ident && b.text == "include" && c.kind == Tok::Str &&
        c.text.size() >= 2) {
      IncludeDirective inc;
      inc.target = c.text.substr(1, c.text.size() - 2);
      inc.line = a.line;
      m.includes.push_back(std::move(inc));
    }
  }

  return m;
}

}  // namespace bac::lint
