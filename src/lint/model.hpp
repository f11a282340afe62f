// Scope tree and declaration harvest for baclint v2.
//
// A FileModel is the unit the cross-line passes (passes.hpp) operate
// on: the raw lines, the token stream, a brace-scope tree with
// namespace/record/function classification, and a handful of harvested
// declaration facts (GUARDED_BY members, REQUIRES functions, MutexLock
// sites, #include targets, node-based container variables).
//
// The model is deliberately *lightweight*: no types, no overload
// resolution, no templates — just enough structure that a pass can ask
// "which function encloses this token, and is a lock for mutex M held
// on the scope chain between them?". Where classification is uncertain
// the builder degrades to Kind::Block, which every pass treats as
// "no claim"; a linter heuristic must fail toward silence, not noise.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/token.hpp"

namespace bac::lint {

struct Scope {
  enum class Kind {
    File,       ///< the implicit root
    Namespace,  ///< `namespace X {` (anonymous: name "")
    Record,     ///< class/struct/union/enum body
    Function,   ///< free or member function body (incl. ctor/dtor)
    Lambda,     ///< lambda body — a lock-inheritance boundary
    Block,      ///< anything else: control flow, bare braces, fallback
  };
  Kind kind = Kind::Block;
  std::string name;     ///< Namespace/Record name; Function unqualified name
  std::string record;   ///< Function only: owning record ("" when free)
  bool ctor_dtor = false;
  bool hot_path = false;  ///< tagged `// baclint: hot-path` (not inherited;
                          ///< passes walk ancestors)
  int parent = -1;
  std::size_t open_tok = 0;   ///< token index of `{` (File: 0)
  std::size_t close_tok = 0;  ///< token index of `}` (or tokens.size())
  int open_line = 0;
  int close_line = 0;
};

/// `member GUARDED_BY(mutex)` harvested from a record or file scope.
struct GuardedVar {
  std::string record;  ///< enclosing record name; "" = file/namespace scope
  std::string name;    ///< member/variable identifier
  std::string mutex;   ///< last identifier inside the annotation parens
  std::string path;    ///< file the annotation lives in
  int line = 0;
};

/// `fn(...) REQUIRES(m1, m2)` harvested from a declaration or definition.
struct RequiresFn {
  std::string record;  ///< enclosing record or `X::fn` qualifier; "" = free
  std::string name;
  std::vector<std::string> mutexes;
};

/// `MutexLock guard(expr);` — the lock-discipline pass treats the
/// declaring scope as holding `mutex` from this token onward.
struct LockSite {
  int scope = -1;
  std::size_t tok = 0;  ///< token index of the MutexLock identifier
  std::string mutex;    ///< last identifier of the lock expression
  int line = 0;
};

struct IncludeDirective {
  std::string target;  ///< path between the quotes (quoted form only)
  int line = 0;
};

/// A variable/member declared as a std:: node-based container.
struct ContainerVar {
  std::string name;
  bool unordered = false;  ///< unordered_map/set/multimap/multiset
  bool pointer_key = false;  ///< first template argument ends in `*`
  int line = 0;
  int scope = -1;  ///< scope the declaration lives in
};

struct FileModel {
  std::string path;
  std::vector<std::string> lines;
  std::vector<Token> tokens;
  std::vector<Scope> scopes;          ///< [0] is the File scope
  std::vector<int> scope_of_tok;      ///< innermost scope per token index
  std::vector<GuardedVar> guarded;
  std::vector<RequiresFn> requires_fns;
  std::vector<LockSite> locks;
  std::vector<IncludeDirective> includes;
  std::vector<ContainerVar> node_containers;
};

/// Tokenize, build the scope tree, and harvest declarations.
FileModel build_file_model(std::string path, std::vector<std::string> lines);

/// Innermost enclosing scope of kind Function or Lambda, or -1.
int enclosing_function(const FileModel& m, int scope);

/// True when `scope` or any ancestor carries the hot-path tag.
bool in_hot_path(const FileModel& m, int scope);

}  // namespace bac::lint
