// The six LDBC Graphalytics kernels [42] — sequential reference
// implementations. bigdata/pregel.hpp runs PageRank as a BSP program on the
// simulated cluster; tests cross-check the two against each other.
//
//   BFS  — breadth-first search depth per vertex
//   PR   — PageRank
//   WCC  — weakly connected components
//   CDLP — community detection by label propagation
//   LCC  — local clustering coefficient
//   SSSP — single-source shortest paths (weighted, Dijkstra)
//
// The *_parallel variants run on a parallel::ThreadPool and are
// BIT-IDENTICAL to the sequential reference at any thread count: chunk
// boundaries are a pure function of the graph, reductions replay the
// sequential floating-point association order (see DESIGN.md §4).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"

namespace mcs::graph {

constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();
constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// BFS depth from `source` (kUnreachable when not reached).
[[nodiscard]] std::vector<std::uint32_t> bfs(const Graph& g, VertexId source);

/// PageRank with uniform teleport; dangling mass is redistributed
/// uniformly (Graphalytics semantics). Returns per-vertex rank summing ~1.
[[nodiscard]] std::vector<double> pagerank(const Graph& g,
                                           std::size_t iterations = 20,
                                           double damping = 0.85);

/// Weakly connected components: smallest reachable vertex id as label.
/// Directed graphs are treated as undirected (hence "weakly").
[[nodiscard]] std::vector<VertexId> wcc(const Graph& g);

/// Community detection by label propagation (synchronous, Graphalytics
/// rules: adopt the smallest label among the most frequent).
[[nodiscard]] std::vector<VertexId> cdlp(const Graph& g,
                                         std::size_t iterations = 10);

/// Local clustering coefficient per vertex.
[[nodiscard]] std::vector<double> lcc(const Graph& g);

/// Dijkstra single-source shortest paths over edge weights.
[[nodiscard]] std::vector<double> sssp(const Graph& g, VertexId source);

// ---- deterministic parallel kernels -----------------------------------------
// Each returns exactly the bytes the sequential kernel above returns, for
// every pool size (asserted by graph_test at 1, 2, and 8 threads).

/// Parallel PageRank: pull-based over the in-neighbor CSR (built once,
/// stable order), which replays the sequential push's accumulation order
/// per vertex; the dangling-mass sum is folded sequentially in vertex
/// order. Bit-identical to pagerank().
[[nodiscard]] std::vector<double> pagerank_parallel(
    const Graph& g, parallel::ThreadPool& pool, std::size_t iterations = 20,
    double damping = 0.85);

/// Parallel WCC: deterministic min-label propagation with pointer jumping
/// (integer lattice — no rounding concerns). Converges to the canonical
/// smallest-member label, i.e. exactly wcc()'s output.
[[nodiscard]] std::vector<VertexId> wcc_parallel(const Graph& g,
                                                 parallel::ThreadPool& pool);

/// Parallel LCC: per-vertex coefficients are independent; each is computed
/// by the same arithmetic as lcc().
[[nodiscard]] std::vector<double> lcc_parallel(const Graph& g,
                                               parallel::ThreadPool& pool);

}  // namespace mcs::graph
