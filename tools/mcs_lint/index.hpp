// mcs_lint pass 1 — the per-file index.
//
// `index_file` lexes one translation unit (comments/strings stripped,
// preprocessor lines captured as include edges) and walks its brace
// structure once, producing everything the rule passes need:
//
//  - every function definition (free functions, member functions defined
//    inline or out-of-line, constructors with their member-initializer
//    lists, lambdas) with its source span and enclosing class/function
//    context;
//  - the calls each body makes (callee name + line), which pass 2 links
//    into the repo-wide call graph, and every name the body mentions
//    (calls and value uses alike), which links R1's reference graph;
//  - per-function *facts*: H2-style allocation sites (new / make_unique /
//    make_shared / push_back / emplace_back / resize without a prior
//    reserve on the same receiver), ambient-time/randomness observations
//    (the D1 token set), and `std::function` uses;
//  - file-level facts: `#include` directives, mutable-static declaration
//    sites, and the suppression/hot markers.
//
// Indexing is pure per-file work — no global state — so `analyze_repo`
// can fan it across threads and merge results in path order, keeping the
// analyzer's own output deterministic (it obeys the rules it enforces).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace mcs::lint {

// ---- lexer ------------------------------------------------------------------

enum class TokKind { kIdent, kNumber, kPunct, kString, kChar };

struct Token {
  TokKind kind;
  std::string text;
  int line;
};

struct Comment {
  int line;
  std::string text;
};

struct IncludeDirective {
  int line = 0;
  std::string path;    ///< as written between the delimiters
  bool angled = false; ///< <system> vs "local"
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
};

[[nodiscard]] LexResult lex(const std::string& src);

// ---- markers ----------------------------------------------------------------

/// Suppression / annotation markers. A comment is a marker only when its
/// text *starts* with `mcs-lint:` (after whitespace) — prose that merely
/// mentions `mcs-lint: hot` in documentation does not annotate anything,
/// which also lets the linter lint its own sources.
///
/// A marker on a comment-only line also registers on the *last* line of its
/// contiguous comment block, so a multi-line justification still governs the
/// first code line after the block (NOLINTNEXTLINE-style):
///
///     // mcs-lint: allow(H3) — the justification may run long and
///     // wrap onto further comment lines without detaching the marker.
///     samples_.push_back(x);   // still suppressed
struct Markers {
  std::set<int> ordered_ok;                    ///< `mcs-lint: ordered-ok`
  std::set<int> hot;                           ///< `mcs-lint: hot`
  std::map<int, std::set<std::string>> allow;  ///< line -> allowed rules
};

[[nodiscard]] Markers parse_markers(const LexResult& lexed);

// ---- the index --------------------------------------------------------------

struct CallSite {
  std::string callee;  ///< unqualified name (last `::` component)
  int line = 0;
};

/// One fact occurrence (allocation, wall-clock observation, ...).
struct Site {
  int line = 0;
  std::string what;  ///< short description, used in finding messages
};

struct FunctionInfo {
  std::string name;  ///< unqualified name; lambdas get `<lambda@LINE>`
  std::string qual;  ///< display name with class qualifier if known
  int line = 0;      ///< line of the opening brace (for a constructor with
                     ///< a member-initializer list: of its `:`)
  int decl_line = 0;  ///< line of the name (lambdas: == line); `allow(...)`
                      ///< anywhere from the line above it to `line` covers
                      ///< the definition
  int parent = -1;   ///< index of enclosing function (lambdas), or -1
  bool hot = false;  ///< annotated `mcs-lint: hot`, or lexically inside a
                     ///< hot function (H2 covers its body either way)
  bool hot_annotated = false;  ///< carries its own annotation
  bool is_lambda = false;
  bool sweep_root = false;  ///< lambda literal passed to exp::run_sweep —
                            ///< a sweep *cell*, a D4 determinism root
  bool sim_callback_root = false;  ///< lambda passed to schedule_at/_after
  std::vector<CallSite> calls;
  /// Every identifier the body mentions, sorted and unique: a superset of
  /// the callees that also holds value uses (`ordered<order_fcfs>(...)`,
  /// `{"fcfs", order_fcfs}`, the `T` of `std::make_unique<T>`).
  std::vector<std::string> refs;
  std::vector<Site> allocs;        ///< H2-style allocation facts
  std::vector<Site> wallclock;     ///< D1-style ambient time/randomness
  std::vector<Site> std_function;  ///< `std::function` mentions
};

struct FileIndex {
  std::string path;                 ///< repo-relative path tag
  std::vector<std::string> lines;   ///< raw source lines (fingerprints)
  Markers markers;
  std::vector<IncludeDirective> includes;
  std::vector<FunctionInfo> functions;
  std::vector<Site> statics;        ///< mutable static/thread_local decls
  /// Wall-clock/randomness observations at namespace scope (outside any
  /// function body); per-function ones live on FunctionInfo.
  std::vector<Site> toplevel_wallclock;
  /// Tokens are retained for the per-file rule pass (D2/D3 loop analysis)
  /// and may be released with `tokens.clear()` once rules have run.
  std::vector<Token> tokens;
};

/// Pass 1 over one file. Pure function of (path, content).
[[nodiscard]] FileIndex index_file(const std::string& path,
                                   const std::string& content);

// ---- shared path policy -----------------------------------------------------

struct PathPolicy {
  bool in_src = false;
  bool r1_root = false;     ///< bench/, tools/, examples/, perfbench/
  bool d1_exempt = false;   ///< src/sim/random.* and src/parallel/
  bool hot_dir = false;     ///< src/sim/, src/graph/, src/parallel/, src/obs/
  bool s1_whitelisted = false;
};

[[nodiscard]] PathPolicy classify_path(const std::string& tag);

/// `src/<module>/...` -> `<module>`; empty string when not a src module
/// (bench/, tests/, tools/ files carry no layer obligations).
[[nodiscard]] std::string module_of(const std::string& tag);

}  // namespace mcs::lint
