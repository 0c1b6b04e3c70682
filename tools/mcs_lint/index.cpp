#include "index.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <sstream>

namespace mcs::lint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-char operators we must not split (a `=` check that matched the
/// first char of `==` would call every comparison a mutation).
constexpr std::array<const char*, 24> kMultiPunct = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>",
    "<=",  ">=",  "==",  "!=",  "&&", "||", "+=", "-=", "*=", "/=",
    "%=",  "&=",  "|=",  "^="};

}  // namespace

LexResult lex(const std::string& src) {
  LexResult out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen so far on this line

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Preprocessor directive: capture #include targets (the L1 layer
    // checker consumes them), then skip to end of line (honoring
    // \-continuation).
    if (c == '#' && at_line_start) {
      const std::size_t dir_start = i;
      const int dir_line = line;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      const std::string dir = src.substr(dir_start, i - dir_start);
      std::size_t p = dir.find("include");
      if (p != std::string::npos) {
        p += 7;
        while (p < dir.size() &&
               std::isspace(static_cast<unsigned char>(dir[p]))) {
          ++p;
        }
        if (p < dir.size() && (dir[p] == '"' || dir[p] == '<')) {
          const char close = dir[p] == '"' ? '"' : '>';
          const std::size_t end = dir.find(close, p + 1);
          if (end != std::string::npos) {
            out.includes.push_back(
                {dir_line, dir.substr(p + 1, end - p - 1), dir[p] == '<'});
          }
        }
      }
      continue;
    }
    at_line_start = false;
    // Comments: collected (they carry the suppression/hot markers), never
    // tokenized.
    if (c == '/' && peek(1) == '/') {
      std::size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      out.comments.push_back({line, src.substr(start, i - start)});
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      const int start_line = line;
      std::size_t start = i + 2;
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      out.comments.push_back({start_line, src.substr(start, i - start)});
      i = std::min(n, i + 2);
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < n && is_ident_char(src[i])) ++i;
      std::string word = src.substr(start, i - start);
      // String/char literal prefixes (R"...", u8"...", L'x', ...): swallow
      // the literal so its contents never reach the rules.
      if (i < n && (src[i] == '"' || src[i] == '\'')) {
        const bool is_raw = !word.empty() && word.back() == 'R';
        static const std::set<std::string> kPrefixes = {
            "R", "L", "u", "U", "u8", "LR", "uR", "UR", "u8R"};
        if (kPrefixes.count(word) != 0) {
          if (src[i] == '"' && is_raw) {
            // Raw string: R"delim( ... )delim"
            std::size_t d0 = i + 1;
            std::size_t p = d0;
            while (p < n && src[p] != '(') ++p;
            const std::string close = ")" + src.substr(d0, p - d0) + "\"";
            std::size_t end = src.find(close, p);
            if (end == std::string::npos) end = n;
            for (std::size_t k = i; k < std::min(n, end); ++k) {
              if (src[k] == '\n') ++line;
            }
            i = std::min(n, end + close.size());
            out.tokens.push_back({TokKind::kString, "<raw>", line});
            continue;
          }
          // Fall through to the normal literal scanner below.
          const char quote = src[i];
          ++i;
          while (i < n && src[i] != quote) {
            if (src[i] == '\\') ++i;
            if (i < n && src[i] == '\n') ++line;
            ++i;
          }
          if (i < n) ++i;
          out.tokens.push_back(
              {quote == '"' ? TokKind::kString : TokKind::kChar, "", line});
          continue;
        }
      }
      out.tokens.push_back({TokKind::kIdent, std::move(word), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::size_t start = i;
      // Good enough for C++ numbers incl. 1'000, 0x1p3, 1e-9, 3.f.
      while (i < n &&
             (is_ident_char(src[i]) || src[i] == '\'' || src[i] == '.' ||
              ((src[i] == '+' || src[i] == '-') &&
               (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      out.tokens.push_back(
          {TokKind::kNumber, src.substr(start, i - start), line});
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\') ++i;
        if (i < n && src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;
      out.tokens.push_back(
          {quote == '"' ? TokKind::kString : TokKind::kChar, "", line});
      continue;
    }
    // Punctuation (greedy multi-char match).
    std::string punct(1, c);
    for (const char* op : kMultiPunct) {
      const std::size_t len = std::char_traits<char>::length(op);
      if (src.compare(i, len, op) == 0) {
        punct.assign(op);
        break;
      }
    }
    i += punct.size();
    out.tokens.push_back({TokKind::kPunct, std::move(punct), line});
  }
  return out;
}

Markers parse_markers(const LexResult& lexed) {
  std::set<int> code_lines;
  for (const Token& t : lexed.tokens) code_lines.insert(t.line);
  std::set<int> comment_lines;
  for (const Comment& c : lexed.comments) comment_lines.insert(c.line);

  // A marker on a comment-only line governs the first code line after its
  // comment block: register it on the block's *last* line too, so rules'
  // line / line-1 checks reach it even when the justification wraps.
  const auto slide = [&](int line) {
    if (code_lines.count(line) != 0) return line;  // trailing marker
    while (comment_lines.count(line + 1) != 0 &&
           code_lines.count(line + 1) == 0) {
      ++line;
    }
    return line;
  };

  Markers m;
  for (const Comment& c : lexed.comments) {
    // Only dedicated marker comments count: the text must *start* with
    // `mcs-lint:`. Doc prose that mentions a marker (`` `mcs-lint: hot`
    // functions`` and the like) must not annotate anything.
    std::size_t at = 0;
    while (at < c.text.size() &&
           std::isspace(static_cast<unsigned char>(c.text[at]))) {
      ++at;
    }
    if (c.text.compare(at, 9, "mcs-lint:") != 0) continue;
    const std::string rest = c.text.substr(at + 9);
    std::size_t first = 0;
    while (first < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[first]))) {
      ++first;
    }
    const int tail = slide(c.line);
    if (rest.compare(first, 10, "ordered-ok") == 0) {
      m.ordered_ok.insert(c.line);
      m.ordered_ok.insert(tail);
    }
    // `hot` must be the marker's keyword, not a word inside an allow()
    // justification ("amortized growth off the hot path").
    if (rest.compare(first, 3, "hot") == 0 &&
        (first + 3 >= rest.size() ||
         !std::isalnum(static_cast<unsigned char>(rest[first + 3])))) {
      m.hot.insert(c.line);
      m.hot.insert(tail);
    }
    std::size_t open = rest.find("allow(");
    while (open != std::string::npos) {
      const std::size_t close = rest.find(')', open);
      if (close == std::string::npos) break;
      std::string list = rest.substr(open + 6, close - open - 6);
      std::string name;
      std::istringstream split(list);
      while (std::getline(split, name, ',')) {
        name.erase(std::remove_if(name.begin(), name.end(), ::isspace),
                   name.end());
        if (!name.empty()) {
          m.allow[c.line].insert(name);
          m.allow[tail].insert(name);
        }
      }
      open = rest.find("allow(", close);
    }
  }
  return m;
}

namespace {

bool contains(const std::string& s, const char* needle) {
  return s.find(needle) != std::string::npos;
}

}  // namespace

PathPolicy classify_path(const std::string& tag) {
  std::string t = tag;
  if (t.rfind("./", 0) == 0) t = t.substr(2);
  PathPolicy p;
  p.in_src = t.rfind("src/", 0) == 0 || contains(t, "/src/");
  for (const char* dir : {"bench/", "tools/", "examples/", "perfbench/"}) {
    if (t.rfind(dir, 0) == 0) p.r1_root = true;
  }
  p.d1_exempt =
      contains(t, "src/sim/random.") || contains(t, "src/parallel/");
  p.hot_dir = contains(t, "src/sim/") || contains(t, "src/graph/") ||
              contains(t, "src/parallel/") || contains(t, "src/obs/");
  // Deliberate process-wide singletons, reviewed in DESIGN.md: the shared
  // worker pool (parallel substrate) is the only allowed mutable static.
  p.s1_whitelisted = contains(t, "src/parallel/thread_pool.cpp");
  return p;
}

std::string module_of(const std::string& tag) {
  std::string t = tag;
  if (t.rfind("./", 0) == 0) t = t.substr(2);
  const std::size_t at = t.rfind("src/", 0) == 0 ? 4 : std::string::npos;
  if (at == std::string::npos) return {};
  const std::size_t slash = t.find('/', at);
  if (slash == std::string::npos) return {};
  return t.substr(at, slash - at);
}

// ---- the scope walker -------------------------------------------------------

namespace {

enum class ScopeKind { kNamespace, kClass, kFunction, kBlock };

/// Keywords and cast-ish constructs that look like `name(...)` but are
/// not calls, plus declaration heads that would pollute the call graph.
const std::set<std::string> kNotACall = {
    "if",        "for",         "while",     "switch",
    "return",    "sizeof",      "alignof",   "alignas",
    "decltype",  "catch",       "new",       "delete",
    "throw",     "case",        "co_await",  "co_return",
    "co_yield",  "assert",      "static_assert",
    "typeid",    "noexcept",    "operator",  "defined",
    "static_cast",  "dynamic_cast",  "reinterpret_cast",  "const_cast",
    "int",       "char",        "bool",      "double",
    "float",     "long",        "short",     "unsigned",
    "signed",    "void",        "auto",      "constexpr",
    "const",     "requires",    "explicit"};

/// D1's ambient-source identifiers, shared with the D4 fact collection.
const std::set<std::string> kBannedClocks = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock"};

class Indexer {
 public:
  Indexer(const std::string& path, const std::string& content)
      : out_() {
    out_.path = path;
    std::istringstream split(content);
    std::string l;
    while (std::getline(split, l)) out_.lines.push_back(std::move(l));
    LexResult lexed = lex(content);
    out_.tokens = std::move(lexed.tokens);
    out_.includes = std::move(lexed.includes);
    out_.markers = parse_markers(lexed);
  }

  FileIndex run() {
    walk();
    for (FunctionInfo& fn : out_.functions) {
      std::sort(fn.refs.begin(), fn.refs.end());
      fn.refs.erase(std::unique(fn.refs.begin(), fn.refs.end()),
                    fn.refs.end());
    }
    return std::move(out_);
  }

 private:
  struct Scope {
    ScopeKind kind;
    int func = -1;          ///< index into out_.functions, or -1
    std::string cls;        ///< class name when kind == kClass
    std::set<std::string> reserved;  ///< receivers with a prior .reserve()
  };

  /// A call to run_sweep / schedule_at / schedule_after whose argument
  /// list is still open: lambdas created inside it are determinism roots.
  struct RootRange {
    std::size_t end_tok;
    bool sweep;  ///< true: run_sweep cell; false: simulator callback
  };

  const Token& tok(std::size_t i) const { return out_.tokens[i]; }
  std::size_t size() const { return out_.tokens.size(); }
  bool is(std::size_t i, const char* text) const {
    return i < size() && out_.tokens[i].text == text;
  }

  std::size_t match_forward(std::size_t i, const char* open,
                            const char* close) const {
    int depth = 0;
    for (std::size_t k = i; k < size(); ++k) {
      if (out_.tokens[k].text == open) ++depth;
      if (out_.tokens[k].text == close && --depth == 0) return k;
    }
    return size();
  }

  bool inside_function() const {
    for (const Scope& s : stack_) {
      if (s.kind == ScopeKind::kFunction) return true;
    }
    return false;
  }

  int current_func() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == ScopeKind::kFunction) return it->func;
    }
    return -1;
  }

  Scope* function_scope() {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == ScopeKind::kFunction) return &*it;
    }
    return nullptr;
  }

  std::string enclosing_class() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == ScopeKind::kClass && !it->cls.empty()) return it->cls;
      if (it->kind == ScopeKind::kFunction) break;
    }
    return {};
  }

  /// Index of the `<` that opens the template argument list closed by the
  /// `>` / `>>` at `close`; size() when there is none within reach.
  std::size_t template_args_open(std::size_t close) const {
    int depth = 0;
    for (std::size_t k = close + 1; k-- > 0 && k + 64 > close;) {
      const std::string& s = tok(k).text;
      if (s == ">") ++depth;
      else if (s == ">>") depth += 2;
      else if (s == "<" && --depth == 0) return k;
      else if (s == ";" || s == "{" || s == "}") break;
    }
    return size();
  }

  /// Same heuristic as the original analyzer: walk back from the `{` over
  /// trailing function decorations to decide what kind of scope opens.
  ScopeKind classify_brace(std::size_t i) const {
    if (i == 0) return ScopeKind::kBlock;
    static const std::set<std::string> kSkippable = {
        "const", "noexcept", "override", "final",    "mutable",
        "->",    "::",       "<",       ">",         "&",
        "*",     ",",        ":",        "constexpr", "&&"};
    std::size_t k = i;  // token index just before `{` is k-1
    std::size_t steps = 0;
    while (k > 0 && steps++ < 24) {
      const Token& t = tok(k - 1);
      if (t.text == ")") {
        int depth = 0;
        std::size_t p = k - 1;
        for (;; --p) {
          if (tok(p).text == ")") ++depth;
          if (tok(p).text == "(" && --depth == 0) break;
          if (p == 0) break;
        }
        static const std::set<std::string> kControl = {
            "if", "for", "while", "switch", "catch"};
        if (p > 0) {
          std::size_t q = p - 1;
          // `if constexpr (...) {`: the keyword sits one further back.
          if (tok(q).text == "constexpr" && q > 0) --q;
          const Token& before = tok(q);
          if (before.kind == TokKind::kIdent &&
              kControl.count(before.text) != 0) {
            return ScopeKind::kBlock;
          }
        }
        return ScopeKind::kFunction;
      }
      if (t.text == "]") return ScopeKind::kFunction;  // captureless lambda
      // `class UniqueFunction<R(Args...)> {`: the parentheses belong to
      // the specialization's arguments, not to a parameter list.
      if (t.text == ">" || t.text == ">>") {
        const std::size_t open = template_args_open(k - 1);
        if (open < k) {
          k = open;
          continue;
        }
      }
      if (t.kind == TokKind::kIdent) {
        if (t.text == "namespace") return ScopeKind::kNamespace;
        if (t.text == "class" || t.text == "struct" || t.text == "union" ||
            t.text == "enum") {
          return ScopeKind::kClass;
        }
        if (t.text == "else" || t.text == "do" || t.text == "try") {
          return ScopeKind::kBlock;
        }
        --k;
        continue;
      }
      if (t.kind == TokKind::kPunct && kSkippable.count(t.text) != 0) {
        --k;
        continue;
      }
      // `= {`, `, {`, `( {`, `return {` ... : braced initializer.
      return ScopeKind::kBlock;
    }
    return inside_function() ? ScopeKind::kBlock : ScopeKind::kNamespace;
  }

  struct Declarator {
    std::string name;
    std::string qual;
    int line = 0;             ///< line of the name
    std::size_t params = 0;   ///< index of the parameter list's `(`
  };

  /// For a Function scope opening at token `i` (the `{`), recover the
  /// function's name: find the parameter list's `(`, take the identifier
  /// chain before it. Returns false for lambdas / operators we name
  /// synthetically.
  bool function_name(std::size_t i, Declarator& d) const {
    static const std::set<std::string> kSkippable = {
        "const", "noexcept", "override", "final", "mutable",
        "->",    "::",       "<",        ">",     "&",
        "*",     ",",        ":",        "constexpr", "&&"};
    std::size_t k = i;
    std::size_t steps = 0;
    while (k > 0 && steps++ < 24) {
      const Token& t = tok(k - 1);
      if (t.text == ")") {
        int depth = 0;
        std::size_t p = k - 1;
        for (;; --p) {
          if (tok(p).text == ")") ++depth;
          if (tok(p).text == "(" && --depth == 0) break;
          if (p == 0) break;
        }
        if (p == 0) return false;
        std::size_t q = p;  // token before `(` is q-1
        // Skip a template-argument list between the name and `(`:
        // `run_sweep<R>(...)` definitions don't occur, but
        // `operator()<T>` could; keep it simple and handle `>`-chains.
        if (q >= 1 && (tok(q - 1).text == ">" || tok(q - 1).text == ">>")) {
          int ad = 0;
          for (; q >= 1; --q) {
            const std::string& s = tok(q - 1).text;
            if (s == ">") ++ad;
            else if (s == ">>") ad += 2;
            else if (s == "<" && --ad <= 0) { --q; break; }
          }
        }
        if (q == 0 || tok(q - 1).kind != TokKind::kIdent) return false;
        if (kNotACall.count(tok(q - 1).text) != 0) return false;
        d.name = tok(q - 1).text;
        d.line = tok(q - 1).line;
        d.params = p;
        d.qual = d.name;
        // Collect `A::B::name` qualifiers.
        std::size_t r = q - 1;
        while (r >= 2 && tok(r - 1).text == "::" &&
               tok(r - 2).kind == TokKind::kIdent) {
          d.qual = tok(r - 2).text + "::" + d.qual;
          r -= 2;
        }
        return true;
      }
      if (t.text == "]") return false;  // lambda
      if (t.text == ">" || t.text == ">>") {  // `-> std::map<K, std::set<V>>`
        const std::size_t open = template_args_open(k - 1);
        if (open < k) {
          k = open;
          continue;
        }
      }
      if (t.kind == TokKind::kIdent ||
          (t.kind == TokKind::kPunct && kSkippable.count(t.text) != 0)) {
        --k;
        continue;
      }
      return false;
    }
    return false;
  }

  /// For a `:` at `i` that follows a parameter list, parses a constructor's
  /// member-initializer list (`: a_(x), Base<T>{y}, b_(z...) {`) and
  /// returns the index of the body's `{`; size() when the tokens after
  /// `:` are not one (a ternary, a case label, a range-for).
  std::size_t ctor_body_brace(std::size_t i) const {
    if (i == 0 || (tok(i - 1).text != ")" && tok(i - 1).text != "noexcept")) {
      return size();
    }
    std::size_t j = i + 1;
    while (j < size()) {
      if (is(j, "::")) ++j;
      if (j >= size() || tok(j).kind != TokKind::kIdent) return size();
      ++j;
      while (is(j, "::") && j + 1 < size() &&
             tok(j + 1).kind == TokKind::kIdent) {
        j += 2;
      }
      if (is(j, "<")) j = skip_template_args(j);
      std::size_t close = size();
      if (is(j, "(")) close = match_forward(j, "(", ")");
      else if (is(j, "{")) close = match_forward(j, "{", "}");
      if (close >= size()) return size();
      j = close + 1;
      if (is(j, "...")) ++j;
      if (is(j, "{")) return j;
      if (!is(j, ",")) return size();
      ++j;
    }
    return size();
  }

  void open_function(std::size_t i) {
    FunctionInfo fn;
    fn.line = tok(i).line;
    const int parent = current_func();
    fn.parent = parent;
    fn.decl_line = fn.line;
    Declarator d;
    if (function_name(i, d)) {
      fn.name = std::move(d.name);
      fn.qual = std::move(d.qual);
      fn.decl_line = d.line;
      // The parameter list is part of the definition: a parameter of type
      // T constructs a T on every call, so its names are R1 references.
      for (std::size_t k = d.params; k < i; ++k) {
        if (tok(k).kind == TokKind::kIdent) fn.refs.push_back(tok(k).text);
      }
      if (fn.qual.find("::") == std::string::npos) {
        const std::string cls = enclosing_class();
        if (!cls.empty()) fn.qual = cls + "::" + fn.qual;
      }
    } else {
      fn.is_lambda = true;
      fn.name = "<lambda@" + std::to_string(fn.line) + ">";
      fn.qual = parent >= 0 ? out_.functions[parent].qual + "::" + fn.name
                            : fn.name;
      for (const RootRange& r : root_ranges_) {
        if (i < r.end_tok) {
          (r.sweep ? fn.sweep_root : fn.sim_callback_root) = true;
        }
      }
    }
    fn.hot_annotated = pending_hot_;
    fn.hot = pending_hot_ ||
             (parent >= 0 && out_.functions[parent].hot);
    pending_hot_ = false;
    const int idx = static_cast<int>(out_.functions.size());
    out_.functions.push_back(std::move(fn));
    // The enclosing function "calls" the lambda/local function: either it
    // invokes it directly or hands it to a callee that will — a sound
    // over-approximation for reachability.
    if (parent >= 0) {
      out_.functions[parent].calls.push_back(
          {out_.functions[idx].name, out_.functions[idx].line});
    }
    Scope s;
    s.kind = ScopeKind::kFunction;
    s.func = idx;
    stack_.push_back(std::move(s));
  }

  void open_class(std::size_t i) {
    Scope s;
    s.kind = ScopeKind::kClass;
    // Walk back for `class|struct NAME [final] [: bases] {`.
    for (std::size_t k = i; k > 0 && k + 24 > i; --k) {
      const Token& t = tok(k - 1);
      if (t.text == "class" || t.text == "struct" || t.text == "union" ||
          t.text == "enum") {
        if (k < size() && tok(k).kind == TokKind::kIdent) {
          std::size_t nm = k;
          if (tok(nm).text == "class" || tok(nm).text == "struct") ++nm;
          if (nm < size() && tok(nm).kind == TokKind::kIdent) {
            s.cls = tok(nm).text;
          }
        }
        break;
      }
    }
    stack_.push_back(std::move(s));
  }

  /// Looks ahead from a `static` / `thread_local` keyword and records an
  /// S1 candidate for mutable variable declarations (functions and
  /// `static const/constexpr` are fine).
  void scan_static_decl(std::size_t i) {
    bool saw_const = false;
    std::size_t k = i + 1;
    int angle_depth = 0;
    for (; k < size() && k < i + 64; ++k) {
      const Token& t = tok(k);
      if (t.text == "<") ++angle_depth;
      else if (t.text == ">") --angle_depth;
      else if (t.text == ">>") angle_depth -= 2;
      if (angle_depth > 0) continue;
      if (t.text == "const" || t.text == "constexpr" ||
          t.text == "constinit" || t.text == "consteval") {
        saw_const = true;
      }
      if (t.text == "class" || t.text == "struct" || t.text == "union" ||
          t.text == "enum" || t.text == "using" || t.text == "assert") {
        return;  // not a variable declaration
      }
      if (t.text == "(") return;  // function declaration/definition
      if (t.text == ";" || t.text == "=" || t.text == "{") break;
    }
    if (saw_const) return;
    out_.statics.push_back({tok(i).line, "mutable static state"});
  }

  void record_wallclock(int line, std::string what) {
    const int f = current_func();
    if (f >= 0) {
      out_.functions[f].wallclock.push_back({line, std::move(what)});
    } else {
      out_.toplevel_wallclock.push_back({line, std::move(what)});
    }
  }

  /// Skips a balanced `<...>` starting at `i` (which must be `<`) and
  /// returns the index just past the matching `>`; size() when it does
  /// not look like a template argument list.
  std::size_t skip_template_args(std::size_t i) const {
    int depth = 0;
    for (std::size_t k = i; k < size() && k < i + 64; ++k) {
      const std::string& s = tok(k).text;
      if (s == "<") ++depth;
      else if (s == ">") { if (--depth == 0) return k + 1; }
      else if (s == ">>") { depth -= 2; if (depth <= 0) return k + 1; }
      else if (s == ";" || s == "{" || s == "}") return size();
    }
    return size();
  }

  void walk() {
    int last_marker_line = -1;
    for (std::size_t i = 0; i < size(); ++i) {
      const Token& t = tok(i);
      // Arm the hot marker when we cross its line; the next function
      // scope consumes it (open_function clears pending_hot_).
      if (!out_.markers.hot.empty() && t.line != last_marker_line) {
        if (out_.markers.hot.count(t.line) != 0 ||
            out_.markers.hot.count(t.line - 1) != 0) {
          pending_hot_ = true;
          last_marker_line = t.line;
        }
      }

      // A constructor's scope opens at the `:` of its member-initializer
      // list, so the initializers' calls and names belong to it; the body's
      // `{` then opens nothing, and braces in between are initializers.
      if (t.kind == TokKind::kPunct && t.text == ":" && init_list_end_ == 0) {
        const std::size_t body = ctor_body_brace(i);
        Declarator d;
        if (body < size() && function_name(i, d)) {
          open_function(i);
          init_list_end_ = body;
          continue;
        }
      }
      if (t.kind == TokKind::kPunct && t.text == "{") {
        if (i == init_list_end_) {
          init_list_end_ = 0;
          continue;
        }
        const bool initializer =
            init_list_end_ != 0 &&
            ((tok(i - 1).kind == TokKind::kIdent &&
              tok(i - 1).text != "mutable") ||
             tok(i - 1).text == ">" || tok(i - 1).text == ">>");
        const ScopeKind kind =
            initializer ? ScopeKind::kBlock : classify_brace(i);
        switch (kind) {
          case ScopeKind::kFunction:
            open_function(i);
            break;
          case ScopeKind::kClass:
            open_class(i);
            break;
          default: {
            Scope s;
            s.kind = kind;
            stack_.push_back(std::move(s));
            break;
          }
        }
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "}") {
        if (!stack_.empty()) stack_.pop_back();
        continue;
      }
      if (t.kind != TokKind::kIdent) continue;

      // S1 candidates (reported by the rules pass for src/ files only).
      if (t.text == "static" || t.text == "thread_local") {
        scan_static_decl(i);
      }

      // D1/D4 facts: ambient time & randomness.
      if (kBannedClocks.count(t.text) != 0) {
        record_wallclock(t.line, "nondeterministic source `" + t.text + "`");
      } else if ((t.text == "rand" || t.text == "srand") && is(i + 1, "(") &&
                 !(i > 0 && (tok(i - 1).text == "." ||
                             tok(i - 1).text == "->"))) {
        record_wallclock(t.line, "C `" + t.text + "()` ambient global RNG");
      } else if (t.text == "time" && is(i + 1, "(") &&
                 (is(i + 2, "nullptr") || is(i + 2, "NULL") ||
                  is(i + 2, "0")) &&
                 !(i > 0 && (tok(i - 1).text == "." ||
                             tok(i - 1).text == "->"))) {
        record_wallclock(t.line, "wall-clock `time()`");
      }

      // std::function fact (H1 per-file in hot dirs; H3 transitively).
      if (t.text == "std" && is(i + 1, "::") && is(i + 2, "function")) {
        const int f = current_func();
        if (f >= 0) {
          out_.functions[f].std_function.push_back(
              {t.line, "`std::function`"});
        }
        // Outside functions H1 still fires lexically from the rules pass;
        // H3 only chases function bodies.
      }

      const int f = current_func();
      if (f < 0) continue;
      FunctionInfo& fn = out_.functions[f];
      Scope* fscope = function_scope();
      fn.refs.push_back(t.text);

      // Allocation facts (H2 for annotated-hot functions, H3 when a hot
      // root reaches the function transitively).
      if (t.text == "new" &&
          !(i > 0 && tok(i - 1).kind == TokKind::kIdent) &&
          !is(i + 1, "(")) {  // `new (buf) T` placement form doesn't allocate
        fn.allocs.push_back({t.line, "heap allocation (`new`)"});
        continue;
      }
      if ((t.text == "make_unique" || t.text == "make_shared") &&
          (is(i + 1, "(") || is(i + 1, "<"))) {
        fn.allocs.push_back({t.line, "heap allocation (`" + t.text + "`)"});
        // Falls through: also a call site (resolves nowhere in-tree).
      }
      if (t.text == "reserve" && is(i + 1, "(") && i >= 2 &&
          (tok(i - 1).text == "." || tok(i - 1).text == "->") &&
          tok(i - 2).kind == TokKind::kIdent) {
        if (fscope != nullptr) fscope->reserved.insert(tok(i - 2).text);
      } else if ((t.text == "push_back" || t.text == "emplace_back" ||
                  t.text == "resize") &&
                 is(i + 1, "(") && i >= 1 &&
                 (tok(i - 1).text == "." || tok(i - 1).text == "->")) {
        const std::string receiver =
            i >= 2 && tok(i - 2).kind == TokKind::kIdent ? tok(i - 2).text
                                                         : std::string();
        const bool reserved = fscope != nullptr && !receiver.empty() &&
                              fscope->reserved.count(receiver) != 0;
        if (!reserved) {
          fn.allocs.push_back(
              {t.line,
               "`" + t.text + "` without a prior `" +
                   (receiver.empty() ? std::string("<receiver>") : receiver) +
                   ".reserve(...)` in this function"});
        }
      }

      // Call sites: `name(` and `name<...>(`.
      if (kNotACall.count(t.text) != 0) continue;
      std::size_t after = i + 1;
      if (is(after, "<")) {
        const std::size_t past = skip_template_args(after);
        if (past < size() && is(past, "(")) after = past;
      }
      if (!is(after, "(")) continue;
      fn.calls.push_back({t.text, t.line});
      // Determinism roots: lambdas inside the argument list of
      // run_sweep (sweep cells) or Simulator::schedule_* (callbacks).
      if (t.text == "run_sweep" || t.text == "schedule_at" ||
          t.text == "schedule_after" || t.text == "schedule_recurring") {
        const std::size_t close = match_forward(after, "(", ")");
        if (close < size()) {
          root_ranges_.push_back({close, t.text == "run_sweep"});
        }
      }
      // Prune exhausted root ranges.
      while (!root_ranges_.empty() && root_ranges_.back().end_tok <= i) {
        root_ranges_.pop_back();
      }
    }
  }

  FileIndex out_;
  std::vector<Scope> stack_;
  std::vector<RootRange> root_ranges_;
  std::size_t init_list_end_ = 0;  ///< pending constructor body `{`, or 0
  bool pending_hot_ = false;
};

}  // namespace

FileIndex index_file(const std::string& path, const std::string& content) {
  return Indexer(path, content).run();
}

}  // namespace mcs::lint
