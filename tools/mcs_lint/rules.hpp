// mcs_lint rule passes.
//
// `run_file_rules` consumes one FileIndex and evaluates everything that
// needs only local evidence: D1 (ambient time/randomness facts), D2/D3
// (order-dependent iteration and pointer-order hazards — token-level loop
// analysis), H1 (std::function in hot-path files), H2 (allocation facts
// of `mcs-lint: hot` functions), S1 (mutable statics). Pure per-file work,
// safe to run from the parallel indexing pass.
//
// `run_repo_rules` consumes the merged index plus the call graph and
// evaluates the interprocedural rules: H3 (hotness propagates through
// calls), D4 (determinism roots — sweep cells and simulator callbacks —
// must not reach ambient time), L1 (the include-layer DAG), R1 (src/ code
// some bench, tool or example reaches). Serial, after the merge barrier.
#pragma once

#include <vector>

#include "callgraph.hpp"
#include "index.hpp"
#include "lint.hpp"

namespace mcs::lint {

/// Per-file rules over one indexed file. Findings are sorted by line
/// (stable), `allow(...)` markers already applied.
[[nodiscard]] std::vector<Finding> run_file_rules(const FileIndex& idx);

/// Interprocedural rules over the whole repo. `files` must be the vector
/// `graph` was built from (nodes point into it).
[[nodiscard]] std::vector<Finding> run_repo_rules(
    const std::vector<FileIndex>& files, const CallGraph& graph);

}  // namespace mcs::lint
