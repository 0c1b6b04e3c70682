#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <string>

namespace mcs::lint {

namespace {

// ---- shared reporting -------------------------------------------------------

/// Applies `allow(...)` markers and computes the SARIF fingerprint
/// (file + rule + whitespace-collapsed source line — line-number
/// independent so reformatting doesn't churn CI's deduplication).
class Reporter {
 public:
  Reporter(const FileIndex& idx, std::vector<Finding>& out)
      : idx_(idx), out_(out) {}

  bool allowed(Rule rule, int line) const {
    for (int l : {line, line - 1}) {
      auto it = idx_.markers.allow.find(l);
      if (it != idx_.markers.allow.end() &&
          it->second.count(rule_name(rule)) != 0) {
        return true;
      }
    }
    return false;
  }

  void report(Rule rule, int line, std::string message) {
    if (allowed(rule, line)) return;
    std::string line_text =
        line >= 1 && line <= static_cast<int>(idx_.lines.size())
            ? idx_.lines[static_cast<std::size_t>(line - 1)]
            : std::string();
    std::string norm;
    for (char c : line_text) {
      if (std::isspace(static_cast<unsigned char>(c))) {
        if (!norm.empty() && norm.back() != ' ') norm.push_back(' ');
      } else {
        norm.push_back(c);
      }
    }
    std::uint64_t fp = fnv1a(idx_.path.data(), idx_.path.size());
    const char* rn = rule_name(rule);
    fp = fnv1a(rn, std::char_traits<char>::length(rn), fp);
    fp = fnv1a(norm.data(), norm.size(), fp);
    out_.push_back({idx_.path, line, rule, std::move(message), fp});
  }

 private:
  const FileIndex& idx_;
  std::vector<Finding>& out_;
};

// ---- D1: ambient time & randomness (from index facts) -----------------------

std::string d1_message(const std::string& what) {
  if (what.rfind("nondeterministic source", 0) == 0) {
    return what +
           " outside src/sim/random.* — route randomness/time through "
           "sim::Rng / Simulator::now()";
  }
  if (what.rfind("wall-clock", 0) == 0) {
    return what + " — use Simulator::now() virtual time";
  }
  return what + " — use sim::Rng";
}

void check_d1(const FileIndex& idx, Reporter& rep) {
  for (const Site& s : idx.toplevel_wallclock) {
    rep.report(Rule::kD1, s.line, d1_message(s.what));
  }
  for (const FunctionInfo& fn : idx.functions) {
    for (const Site& s : fn.wallclock) {
      rep.report(Rule::kD1, s.line, d1_message(s.what));
    }
  }
}

// ---- D2/D3: container-order analysis (token level) --------------------------

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

const std::set<std::string> kOrderedPtrTypes = {"map", "set", "multimap",
                                                "multiset"};

const std::set<std::string> kMutatingCalls = {
    "push_back", "emplace_back", "emplace", "insert", "erase", "clear"};

const std::set<std::string> kAssignOps = {
    "=",  "+=", "-=", "*=",  "/=",  "%=", "&=",
    "|=", "^=", "<<=", ">>=", "++", "--"};

/// Token-level analysis of container declarations and loops, shared by D2
/// (unordered iteration folds) and D3 (pointer-order hazards).
class ContainerAnalysis {
 public:
  ContainerAnalysis(const FileIndex& idx, Reporter& rep)
      : idx_(idx), toks_(idx.tokens), rep_(rep) {}

  void run(bool in_src) {
    collect_container_vars();
    if (in_src) {
      check_loops();
      check_ptr_keyed_decls();
      check_ptr_sort();
    }
  }

 private:
  const Token& tok(std::size_t i) const { return toks_[i]; }
  bool is(std::size_t i, const char* text) const {
    return i < toks_.size() && toks_[i].text == text;
  }

  std::size_t match_forward(std::size_t i, const char* open,
                            const char* close) const {
    int depth = 0;
    for (std::size_t k = i; k < toks_.size(); ++k) {
      if (toks_[k].text == open) ++depth;
      if (toks_[k].text == close && --depth == 0) return k;
    }
    return toks_.size();
  }

  /// Index just past a balanced `<...>` starting at `i` (must be `<`);
  /// also reports whether the *first* template argument mentions a raw
  /// pointer (`*` before the first top-level comma) — the container-key
  /// position for map/set and their unordered/multi variants.
  std::size_t scan_template_args(std::size_t i, bool& first_arg_ptr) const {
    first_arg_ptr = false;
    int depth = 0;
    bool past_first = false;
    for (std::size_t k = i; k < toks_.size(); ++k) {
      const std::string& s = toks_[k].text;
      if (s == "<") ++depth;
      else if (s == ">") { if (--depth == 0) return k + 1; }
      else if (s == ">>") { depth -= 2; if (depth <= 0) return k + 1; }
      else if (s == "," && depth == 1) past_first = true;
      else if (s == "*" && depth == 1 && !past_first) first_arg_ptr = true;
      else if (s == ";" || s == "{" || s == "}") break;
    }
    return toks_.size();
  }

  /// Discovers declared container variables: unordered containers (D2),
  /// pointer-keyed unordered containers (D3 escalation), pointer-element
  /// vectors (D3 sort check). Registers `using Alias = std::...` aliases.
  void collect_container_vars() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent) continue;
      const std::string& w = toks_[i].text;
      const bool base_unordered = kUnorderedTypes.count(w) != 0;
      const bool alias_unordered = unordered_aliases_.count(w) != 0;
      const bool base_vector = w == "vector";
      if (!base_unordered && !alias_unordered && !base_vector) continue;
      // `using Alias = std::unordered_map<...>` registers the alias: look
      // back for `using X =` within a few tokens.
      bool is_alias_decl = false;
      std::string alias_name;
      if (base_unordered || base_vector) {
        for (std::size_t k = (i > 6 ? i - 6 : 0); k + 2 < i; ++k) {
          if (toks_[k].text == "using" &&
              toks_[k + 1].kind == TokKind::kIdent &&
              toks_[k + 2].text == "=") {
            is_alias_decl = true;
            alias_name = toks_[k + 1].text;
          }
        }
      }
      bool ptr_keyed = alias_unordered && unordered_ptr_aliases_.count(w) != 0;
      std::size_t p = i + 1;
      if (is(p, "<")) {
        bool first_ptr = false;
        p = scan_template_args(p, first_ptr);
        ptr_keyed = ptr_keyed || first_ptr;
      }
      if (is_alias_decl && base_unordered) {
        unordered_aliases_.insert(alias_name);
        if (ptr_keyed) unordered_ptr_aliases_.insert(alias_name);
        continue;
      }
      while (p < toks_.size() &&
             (toks_[p].text == "&" || toks_[p].text == "*" ||
              toks_[p].text == "const")) {
        ++p;
      }
      if (p < toks_.size() && toks_[p].kind == TokKind::kIdent &&
          !is(p + 1, "(")) {  // `(` would make it a function return type
        if (base_unordered || alias_unordered) {
          unordered_vars_.insert(toks_[p].text);
          if (ptr_keyed) unordered_ptr_vars_.insert(toks_[p].text);
        } else if (base_vector && ptr_keyed && !is_alias_decl) {
          ptr_vector_vars_.insert(toks_[p].text);
        }
      }
    }
  }

  bool names_unordered(std::size_t begin, std::size_t end) const {
    for (std::size_t k = begin; k < end; ++k) {
      if (toks_[k].kind != TokKind::kIdent) continue;
      if (kUnorderedTypes.count(toks_[k].text) != 0) return true;
      if (unordered_vars_.count(toks_[k].text) != 0) return true;
      if (unordered_aliases_.count(toks_[k].text) != 0) return true;
    }
    return false;
  }

  bool names_ptr_keyed(std::size_t begin, std::size_t end) const {
    for (std::size_t k = begin; k < end; ++k) {
      if (toks_[k].kind != TokKind::kIdent) continue;
      if (unordered_ptr_vars_.count(toks_[k].text) != 0) return true;
      if (unordered_ptr_aliases_.count(toks_[k].text) != 0) return true;
    }
    return false;
  }

  bool body_mutates(std::size_t begin, std::size_t end) const {
    for (std::size_t k = begin; k < end; ++k) {
      const Token& t = toks_[k];
      if (t.kind == TokKind::kPunct && kAssignOps.count(t.text) != 0) {
        return true;
      }
      if (t.kind == TokKind::kIdent && kMutatingCalls.count(t.text) != 0 &&
          is(k + 1, "(")) {
        return true;
      }
    }
    return false;
  }

  /// D2 / D3c — loops over unordered containers whose body mutates or
  /// accumulates. Pointer-keyed containers escalate to D3: even a
  /// *sorted-later* fold is unfixable because the keys themselves are
  /// addresses.
  void check_loops() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!(toks_[i].kind == TokKind::kIdent && toks_[i].text == "for" &&
            is(i + 1, "("))) {
        continue;
      }
      const std::size_t close = match_forward(i + 1, "(", ")");
      if (close >= toks_.size()) continue;
      // Split the header at a top-level `:` (range-for) if present.
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t k = i + 1; k < close; ++k) {
        if (toks_[k].text == "(" || toks_[k].text == "[" ||
            toks_[k].text == "<") {
          ++depth;
        } else if (toks_[k].text == ")" || toks_[k].text == "]" ||
                   toks_[k].text == ">") {
          --depth;
        } else if (toks_[k].text == ":" && depth == 1) {
          colon = k;
          break;
        }
      }
      bool unordered = false;
      bool ptr_keyed = false;
      if (colon != 0) {
        unordered = names_unordered(colon + 1, close);
        ptr_keyed = names_ptr_keyed(colon + 1, close);
      } else {
        // Iterator loop: `for (auto it = m.begin(); ...)` — the init
        // section (up to the first `;`) names the container and begin().
        std::size_t semi = close;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (toks_[k].text == ";") { semi = k; break; }
        }
        bool has_begin = false;
        for (std::size_t k = i + 2; k < semi; ++k) {
          if (toks_[k].kind == TokKind::kIdent &&
              (toks_[k].text == "begin" || toks_[k].text == "cbegin")) {
            has_begin = true;
          }
        }
        unordered = has_begin && names_unordered(i + 2, semi);
        ptr_keyed = has_begin && names_ptr_keyed(i + 2, semi);
      }
      if (!unordered) continue;
      // Locate the loop body.
      std::size_t body_begin = close + 1;
      std::size_t body_end;
      if (is(body_begin, "{")) {
        body_end = match_forward(body_begin, "{", "}");
      } else {
        body_end = body_begin;
        while (body_end < toks_.size() && toks_[body_end].text != ";") {
          ++body_end;
        }
      }
      if (!body_mutates(body_begin, body_end)) continue;
      const int line = toks_[i].line;
      if (idx_.markers.ordered_ok.count(line) != 0 ||
          idx_.markers.ordered_ok.count(line - 1) != 0) {
        continue;
      }
      if (ptr_keyed) {
        rep_.report(
            Rule::kD3, line,
            "fold over a pointer-keyed unordered container — bucket order "
            "is a function of the key *addresses* (ASLR-dependent), so no "
            "later sort can recover determinism; key by a stable id "
            "instead");
      } else {
        rep_.report(
            Rule::kD2, line,
            "loop over std::unordered_* mutates/accumulates state — "
            "iteration order is bucket order (non-deterministic across "
            "implementations); use an ordered/insertion-ordered container "
            "or annotate a reviewed site with `// mcs-lint: ordered-ok`");
      }
    }
  }

  /// D3a — ordered containers keyed on raw pointers: std::map<T*, ...>,
  /// std::set<T*>. Their comparison order IS the address order.
  void check_ptr_keyed_decls() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent ||
          kOrderedPtrTypes.count(toks_[i].text) == 0 || !is(i + 1, "<")) {
        continue;
      }
      // Require the std:: qualifier so project types named `map`/`set`
      // don't fire.
      if (!(i >= 2 && toks_[i - 1].text == "::" &&
            toks_[i - 2].text == "std")) {
        continue;
      }
      bool first_ptr = false;
      scan_template_args(i + 1, first_ptr);
      if (!first_ptr) continue;
      rep_.report(
          Rule::kD3, toks_[i].line,
          "ordered container keyed on raw pointer values (`std::" +
              toks_[i].text +
              "<T*, ...>`) — iteration order is address order "
              "(ASLR-dependent); key by a stable id or supply a comparator "
              "over stable fields");
    }
  }

  /// D3b — std::sort over a pointer container without a comparator:
  /// the resulting order is allocation order.
  void check_ptr_sort() {
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (toks_[i].kind != TokKind::kIdent ||
          !(toks_[i].text == "sort" || toks_[i].text == "stable_sort") ||
          !is(i + 1, "(")) {
        continue;
      }
      const std::size_t close = match_forward(i + 1, "(", ")");
      if (close >= toks_.size()) continue;
      int depth = 0;
      int top_commas = 0;
      for (std::size_t k = i + 1; k < close; ++k) {
        const std::string& s = toks_[k].text;
        if (s == "(" || s == "[" || s == "{" || s == "<") ++depth;
        else if (s == ")" || s == "]" || s == "}" || s == ">") --depth;
        else if (s == "," && depth == 1) ++top_commas;
      }
      if (top_commas != 1) continue;  // a third argument is the comparator
      bool over_ptrs = false;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (toks_[k].kind == TokKind::kIdent &&
            ptr_vector_vars_.count(toks_[k].text) != 0) {
          over_ptrs = true;
        }
      }
      if (!over_ptrs) continue;
      rep_.report(
          Rule::kD3, toks_[i].line,
          "`std::" + toks_[i].text +
              "` over raw pointer values without a comparator — the result "
              "is address order (ASLR-dependent); pass a comparator over "
              "stable fields");
    }
  }

  const FileIndex& idx_;
  const std::vector<Token>& toks_;
  Reporter& rep_;
  std::set<std::string> unordered_vars_;
  std::set<std::string> unordered_aliases_;
  std::set<std::string> unordered_ptr_vars_;
  std::set<std::string> unordered_ptr_aliases_;
  std::set<std::string> ptr_vector_vars_;
};

// ---- H1: std::function in hot-path files ------------------------------------

void check_h1(const FileIndex& idx, Reporter& rep) {
  const std::vector<Token>& toks = idx.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text == "std" && toks[i + 1].text == "::" &&
        toks[i + 2].text == "function") {
      rep.report(Rule::kH1, toks[i].line,
                 "std::function in hot-path file — use "
                 "core::UniqueFunction (owning; sim::Callback is its void() "
                 "form) or core::FunctionRef (borrowed)");
    }
  }
}

// ---- H2: allocation in hot functions (from index facts) ---------------------

std::string h2_message(const std::string& what) {
  if (what.rfind("heap allocation", 0) == 0) {
    return what + " in function marked `mcs-lint: hot`";
  }
  // push_back/emplace_back/resize-without-reserve facts already read
  // "`push_back` without a prior `x.reserve(...)` in this function".
  return what + " marked `mcs-lint: hot` — growth reallocates on the hot path";
}

void check_h2(const FileIndex& idx, Reporter& rep) {
  for (const FunctionInfo& fn : idx.functions) {
    if (!fn.hot) continue;
    for (const Site& s : fn.allocs) {
      rep.report(Rule::kH2, s.line, h2_message(s.what));
    }
  }
}

// ---- S1: mutable static state (from index facts) ----------------------------

void check_s1(const FileIndex& idx, Reporter& rep) {
  for (const Site& s : idx.statics) {
    rep.report(Rule::kS1, s.line,
               "mutable static state — shared mutable globals make runs "
               "order- and thread-count-dependent; pass state explicitly or "
               "whitelist a reviewed singleton");
  }
}

}  // namespace

std::vector<Finding> run_file_rules(const FileIndex& idx) {
  const PathPolicy policy = classify_path(idx.path);
  std::vector<Finding> findings;
  Reporter rep(idx, findings);
  if (policy.in_src && !policy.d1_exempt) check_d1(idx, rep);
  ContainerAnalysis(idx, rep).run(policy.in_src);
  if (policy.hot_dir) check_h1(idx, rep);
  check_h2(idx, rep);
  if (policy.in_src && !policy.s1_whitelisted) check_s1(idx, rep);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

// ---- repo rules -------------------------------------------------------------

namespace {

/// Whether `allow(RULE)` sits on the definition of `node`: on any line
/// from the one above its name to the one holding its opening brace.
bool allowed_on_definition(const CallGraph::Node& node, Rule rule) {
  const auto& allow = node.file->markers.allow;
  for (auto it = allow.lower_bound(node.fn->decl_line - 1);
       it != allow.end() && it->first <= node.fn->line; ++it) {
    if (it->second.count(rule_name(rule)) != 0) return true;
  }
  return false;
}

/// A node is a propagation stop for `rule` when `allow(RULE)` sits on its
/// definition: the justification covers the subtree the function guards.
std::vector<char> blocked_nodes(const CallGraph& graph, Rule rule) {
  std::vector<char> blocked(graph.nodes().size(), 0);
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    blocked[n] = allowed_on_definition(graph.nodes()[n], rule) ? 1 : 0;
  }
  return blocked;
}

/// H3 — hotness is transitive: every function reachable from a
/// `mcs-lint: hot` root inherits the allocation budget. Roots themselves
/// (and lexically-nested hot lambdas) are H2's territory; H3 reports the
/// *helpers* a hot function calls into, with the chain that makes them
/// hot.
void run_h3(const std::vector<FileIndex>& files, const CallGraph& graph,
            std::vector<Finding>& out) {
  (void)files;
  std::vector<int> roots;
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    if (graph.nodes()[n].fn->hot_annotated) {
      roots.push_back(static_cast<int>(n));
    }
  }
  if (roots.empty()) return;
  const std::vector<char> blocked = blocked_nodes(graph, Rule::kH3);
  const std::vector<int> parent = graph.reach(roots, blocked);
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    if (parent[n] < 0) continue;
    const CallGraph::Node& node = graph.nodes()[n];
    if (node.fn->hot) continue;  // H2 already owns annotated/nested-hot code
    const std::string chain = graph.chain(parent, static_cast<int>(n));
    Reporter rep(*node.file, out);
    for (const Site& s : node.fn->allocs) {
      rep.report(Rule::kH3, s.line,
                 s.what + " on a hot path — reachable from `mcs-lint: hot` "
                          "root via " +
                     chain +
                     "; make this helper allocation-free, mark it hot, or "
                     "annotate a reviewed site with `// mcs-lint: "
                     "allow(H3)`");
    }
    for (const Site& s : node.fn->std_function) {
      rep.report(Rule::kH3, s.line,
                 s.what + " on a hot path — reachable from `mcs-lint: hot` "
                          "root via " +
                     chain + "; use core::UniqueFunction / core::FunctionRef");
    }
  }
}

/// D4 — determinism roots (sweep cells handed to exp::run_sweep,
/// callbacks handed to Simulator::schedule_at/_after) must not reach
/// ambient time or randomness. src/ files are D1's territory (and
/// src/sim/random.* + src/parallel/ are the sanctioned implementations);
/// D4 adds the bench/tests/tools cell code D1 does not see.
void run_d4(const std::vector<FileIndex>& files, const CallGraph& graph,
            std::vector<Finding>& out) {
  (void)files;
  std::vector<int> roots;
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    const FunctionInfo& fn = *graph.nodes()[n].fn;
    if (fn.sweep_root || fn.sim_callback_root) {
      roots.push_back(static_cast<int>(n));
    }
  }
  if (roots.empty()) return;
  const std::vector<char> blocked = blocked_nodes(graph, Rule::kD4);
  const std::vector<int> parent = graph.reach(roots, blocked);
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    if (parent[n] < 0) continue;
    const CallGraph::Node& node = graph.nodes()[n];
    if (node.fn->wallclock.empty()) continue;
    const PathPolicy policy = classify_path(node.file->path);
    if (policy.in_src) continue;  // D1 (or its exemptions) covers src/
    int root_id = static_cast<int>(n);
    std::size_t hops = 0;
    while (parent[static_cast<std::size_t>(root_id)] != root_id &&
           hops++ < graph.nodes().size()) {
      root_id = parent[static_cast<std::size_t>(root_id)];
    }
    const FunctionInfo& root =
        *graph.nodes()[static_cast<std::size_t>(root_id)].fn;
    const char* kind =
        root.sweep_root
            ? "a sweep cell (exp::run_sweep)"
            : "a simulator callback "
              "(schedule_at/schedule_after/schedule_recurring)";
    const std::string chain = graph.chain(parent, static_cast<int>(n));
    Reporter rep(*node.file, out);
    for (const Site& s : node.fn->wallclock) {
      rep.report(Rule::kD4, s.line,
                 s.what + std::string(" reachable from ") + kind + " via " +
                     chain +
                     " — experiment cells must be pure functions of "
                     "(scenario, seed); use SweepPoint substream seeds / "
                     "Simulator::now()");
    }
  }
}

/// R1 — every function defined under src/ must be reachable, through
/// reference edges, from a root: any function defined under bench/,
/// tools/, examples/ or perfbench/ (each `main`, each registered `BM_*`).
/// A function carrying `allow(R1)` is kept on purpose (reference code a
/// test diffs against) and roots the subtree it keeps alive. Skipped when
/// the input holds no root file, so `mcs_lint src` lints as before.
void run_r1(const std::vector<FileIndex>& files, std::vector<Finding>& out) {
  const bool any_root = std::any_of(
      files.begin(), files.end(),
      [](const FileIndex& f) { return classify_path(f.path).r1_root; });
  if (!any_root) return;
  const CallGraph refs =
      CallGraph::build(files, CallGraph::Edges::kReferences);
  std::vector<int> roots;
  for (std::size_t n = 0; n < refs.nodes().size(); ++n) {
    const CallGraph::Node& node = refs.nodes()[n];
    if (classify_path(node.file->path).r1_root ||
        allowed_on_definition(node, Rule::kR1)) {
      roots.push_back(static_cast<int>(n));
    }
  }
  const std::vector<int> parent = refs.reach(roots, {});
  for (std::size_t n = 0; n < refs.nodes().size(); ++n) {
    const CallGraph::Node& node = refs.nodes()[n];
    if (parent[n] >= 0 || node.fn->is_lambda ||
        !classify_path(node.file->path).in_src) {
      continue;
    }
    Reporter rep(*node.file, out);
    rep.report(Rule::kR1, node.fn->line,
               "`" + node.fn->qual +
                   "` is defined under src/ but no bench, tool, example or "
                   "perfbench function reaches it — call it from the bench "
                   "that regenerates its artifact, move it to tests/, or "
                   "delete it; keep reviewed reference code with "
                   "`// mcs-lint: allow(R1) — <reason>`");
  }
}

/// L1 — the include-layer DAG.
void run_l1(const std::vector<FileIndex>& files, std::vector<Finding>& out) {
  for (const LayerViolation& v : check_layers(files)) {
    // Reporter needs the owning FileIndex for markers/fingerprints.
    const FileIndex* idx = nullptr;
    for (const FileIndex& f : files) {
      if (f.path == v.file) { idx = &f; break; }
    }
    if (idx == nullptr) continue;
    Reporter rep(*idx, out);
    rep.report(Rule::kL1, v.line, v.message);
  }
}

}  // namespace

std::vector<Finding> run_repo_rules(const std::vector<FileIndex>& files,
                                    const CallGraph& graph) {
  std::vector<Finding> out;
  run_h3(files, graph, out);
  run_d4(files, graph, out);
  run_l1(files, out);
  run_r1(files, out);
  return out;
}

}  // namespace mcs::lint
