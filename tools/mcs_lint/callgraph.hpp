// mcs_lint pass 2 structures — the repo-wide call graph and the include
// graph with the DESIGN.md layer DAG.
//
// Call resolution is name-based and deliberately over-approximate: a call
// site links to *every* indexed function whose unqualified name matches
// (virtual dispatch, overloads, and same-named helpers all collapse onto
// one node set). Over-approximation is the right polarity for H3/D4 —
// reachability rules — because a missed edge hides a real regression
// while a spurious edge at worst asks for a reviewed `allow(...)`.
// Lambdas resolve only within their defining file (their synthesized
// `<lambda@LINE>` names are file-local).
//
// The same nodes carry a second edge kind for R1: a *reference* edge links
// a function to every function whose name its body mentions, as a call or
// as a value (a function pointer, a template argument, the class named by
// `std::make_unique<T>`, which reaches T's constructors). H3 and D4 walk
// calls only; R1's "is anything still using this?" walks references.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "index.hpp"

namespace mcs::lint {

class CallGraph {
 public:
  struct Node {
    const FileIndex* file = nullptr;
    const FunctionInfo* fn = nullptr;
  };

  enum class Edges { kCalls, kReferences };

  /// Builds nodes and edges over all indexed files. The files vector must
  /// outlive the graph (nodes point into it). Node order is (file order,
  /// function order) — deterministic because files arrive sorted by path.
  static CallGraph build(const std::vector<FileIndex>& files,
                         Edges edges = Edges::kCalls);

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<int>& edges(std::size_t node) const {
    return out_[node];
  }

  /// Breadth-first reachability from `roots`. `blocked[n]` nodes are
  /// neither visited nor expanded (used for `allow(...)` propagation
  /// stops). Returns the BFS parent array: -1 for unreached nodes,
  /// self-index for roots.
  [[nodiscard]] std::vector<int> reach(const std::vector<int>& roots,
                                       const std::vector<char>& blocked) const;

  /// `root -> ... -> node` chain string from a reach() parent array.
  [[nodiscard]] std::string chain(const std::vector<int>& parent,
                                  int node) const;

  /// Graphviz dump: one subgraph per file, hot roots filled. Deterministic.
  [[nodiscard]] std::string to_dot() const;

 private:
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> out_;
};

// ---- layer DAG (rule L1) ----------------------------------------------------

/// DESIGN.md layer rank of a src/ module; -1 when the module is unknown
/// (no layering obligation). Lower rank = lower layer. An include edge
/// may only point at the same or a lower rank:
///   0 core | 1 sim metrics | 2 graph parallel infra workload
///   3 sched failures obs   | 4 exp check
///   5 autoscale bigdata evolve faas gaming p2p
[[nodiscard]] int layer_rank(const std::string& module);

/// Human-readable name of a layer rank ("domain ecosystems", ...).
[[nodiscard]] const char* layer_name(int rank);

struct LayerViolation {
  std::string file;   ///< including file
  int line = 0;       ///< line of the #include
  std::string chain;  ///< `sched -> exp` or a full cycle `sim -> metrics -> sim`
  std::string message;
};

/// Checks every src-internal include edge against the layer DAG and
/// detects module-level include cycles (reported once per cycle, anchored
/// at its lexicographically first edge).
[[nodiscard]] std::vector<LayerViolation> check_layers(
    const std::vector<FileIndex>& files);

}  // namespace mcs::lint
