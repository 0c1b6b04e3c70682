// mcs-lint — repo-specific determinism & hot-path static analyzer.
//
// The paper's reproducibility stance (§5 "Threats to validity") and PR 1's
// bit-identical parallel kernels are protected here *by construction*: the
// classes of regression that historically rot datacenter simulators become
// lint findings instead of flaky-bench mysteries. No libclang — a small
// purpose-built lexer plus a two-pass index (per-file symbol tables merged
// into a repo-wide call graph and include graph) is enough for the rule
// set, keeps the tool dependency-free, and lints the whole tree in well
// under a second.
//
// Per-file rules (pass 1; see DESIGN.md §8 for rationale):
//   D1  wall-clock / ambient randomness (`std::random_device`, `rand()`,
//       `time(nullptr)`, `system_clock`, `steady_clock`, ...) in src/
//       outside src/sim/random.* and src/parallel/.
//   D2  range-for or iterator loops over std::unordered_{map,set} whose
//       body mutates state or accumulates results (bucket-order hazard).
//       Suppress a reviewed site with `// mcs-lint: ordered-ok`.
//   D3  pointer-order nondeterminism: ordered containers keyed on raw
//       pointers, `std::sort` of a pointer container without a comparator,
//       and unordered containers keyed on pointers whose iteration feeds a
//       fold — all ASLR-dependent, all silently break `--digest` equality.
//   H1  std::function in hot-path files (src/sim/, src/graph/,
//       src/parallel/, src/obs/) — use core::UniqueFunction (owning; the
//       event kernel's sim::Callback is its void() form) or
//       core::FunctionRef.
//   H2  heap allocation (`new`, `make_unique`/`make_shared`, `push_back`/
//       `emplace_back`/`resize` without a prior `reserve` on the same
//       receiver in the same function) inside functions marked
//       `// mcs-lint: hot`.
//   S1  mutable static / namespace-scope state in src/ outside the
//       explicit whitelist (process-wide singletons must be deliberate).
//
// Interprocedural rules (pass 2, over the merged index):
//   H3  hotness propagates: a function *reachable from* a `mcs-lint: hot`
//       root through the call graph that allocates (or uses std::function)
//       is flagged, with the full call chain in the finding.
//   D4  D1 made transitive: ambient time/randomness reachable from a
//       sweep cell (lambda passed to exp::run_sweep) or a simulator
//       callback (lambda passed to schedule_at/schedule_after/
//       schedule_recurring) — covers bench/ and tests/ code that D1's
//       src/-only scope does not.
//   L1  the DESIGN.md layer DAG enforced on src-internal #include edges
//       (core <- sim/metrics <- graph/parallel/infra/workload <-
//       sched/failures/obs <- exp/check <- domains), plus module cycles.
//   R1  src/ holds only code something runs: a function defined under
//       src/ that no root reaches through calls or value uses (function
//       pointers, template arguments, `std::make_unique<T>`) is flagged.
//       Roots are the functions defined under bench/, tools/, examples/
//       and perfbench/; tests/ is not one. Skipped when no root file is
//       in the input, so lint all six directories together.
//
// Generic per-line suppression: `// mcs-lint: allow(D1)` on the finding's
// line or the line above. For H3/D4, `allow(...)` on a function's
// definition (any line from the one above its name to its opening brace)
// also stops propagation *through* that function — the justification
// covers the subtree it guards; for R1 it keeps the function and what it
// reaches. There is no baseline: every finding fails CI until it is fixed
// or carries a justified marker, so the count of findings only goes down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mcs::lint {

enum class Rule { kD1, kD2, kD3, kD4, kH1, kH2, kH3, kS1, kL1, kR1 };

[[nodiscard]] const char* rule_name(Rule rule);

/// Long-form rationale + remedy text for `--explain RULE`; nullptr for an
/// unknown rule name. `parse_rule` accepts "D1" ... "R1".
[[nodiscard]] const char* explain(Rule rule);
[[nodiscard]] bool parse_rule(const std::string& name, Rule& out);

struct Finding {
  std::string file;  ///< path tag as given to analyze_file (repo-relative)
  int line = 0;      ///< 1-based
  Rule rule = Rule::kD1;
  std::string message;
  /// Line-number-independent identity, SARIF's `partialFingerprints`
  /// (CI deduplicates a finding across runs by it): FNV-1a over (file,
  /// rule, whitespace-collapsed source line).
  std::uint64_t fingerprint = 0;
};

/// 64-bit FNV-1a (also the digest primitive of bench/exp_graphalytics
/// --digest, which the gate.exp_graphalytics ctest diffs).
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t len,
                                  std::uint64_t seed = 1469598103934665603ull);

/// Analyzes one translation unit with the per-file rules only (D1, D2,
/// D3, H1, H2, S1). `path_tag` decides which rules apply (src/ vs bench/
/// vs tests/, hot-path directories, whitelists) and is the `file`
/// reported in findings. Findings are sorted by line.
[[nodiscard]] std::vector<Finding> analyze_file(const std::string& path_tag,
                                                const std::string& content);

// ---- repo-wide analysis -----------------------------------------------------

struct FileInput {
  std::string path;     ///< repo-relative path tag
  std::string content;  ///< full file contents
};

struct RepoOptions {
  /// Files indexed on this many threads; findings are merged in path
  /// order, so output is byte-identical at any job count (the analyzer
  /// obeys its own determinism rules).
  int jobs = 1;
  bool want_callgraph = false;  ///< fill RepoResult::callgraph_dot
};

struct RepoResult {
  /// All findings — per-file rules plus H3/D4/L1/R1 — sorted by
  /// (file, line, rule, message).
  std::vector<Finding> findings;
  std::string callgraph_dot;  ///< Graphviz DOT when requested
};

/// Two-pass repo analysis: pass 1 indexes every file (in parallel when
/// opt.jobs > 1) and runs the per-file rules; pass 2 builds the call
/// graph and include graph and runs H3/D4/L1/R1.
[[nodiscard]] RepoResult analyze_repo(const std::vector<FileInput>& files,
                                      const RepoOptions& opt = {});

/// Formats a finding as `file:line: [RULE] message`.
[[nodiscard]] std::string format_finding(const Finding& f);

/// SARIF 2.1.0 document for CI diff annotation (`--sarif FILE`).
[[nodiscard]] std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace mcs::lint
