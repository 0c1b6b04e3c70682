// Graph substrate for §6.6 "Generalized Graph Processing" and the
// Graphalytics reproduction (C16, [42]).
//
// Storage is CSR (compressed sparse row): cache-friendly, and the layout
// every distributed graph engine partition ultimately uses. Graphs may be
// directed or undirected (undirected stores both arcs); weights are
// optional and parallel to the adjacency array.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace mcs::graph {

using VertexId = std::uint32_t;

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  double weight = 1.0;
};

class Graph {
 public:
  /// Builds a CSR graph from an edge list. Self-loops are kept; duplicate
  /// edges are kept (multi-graph semantics, as R-MAT generators produce).
  /// When `undirected`, each edge is inserted in both directions.
  Graph(VertexId vertex_count, const std::vector<Edge>& edges,
        bool undirected = false);

  [[nodiscard]] VertexId vertex_count() const { return n_; }
  /// Number of stored arcs (2x input edges for undirected graphs).
  [[nodiscard]] std::size_t arc_count() const { return adjacency_.size(); }
  [[nodiscard]] bool undirected() const { return undirected_; }

  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const;
  [[nodiscard]] std::span<const double> weights(VertexId v) const;
  [[nodiscard]] std::size_t out_degree(VertexId v) const;

  /// The CSR adjacency array (the transpose builder scans it whole).
  [[nodiscard]] const std::vector<VertexId>& adjacency() const { return adjacency_; }

 private:
  VertexId n_;
  bool undirected_;
  std::vector<std::size_t> offsets_;   // n+1
  std::vector<VertexId> adjacency_;
  std::vector<double> edge_weights_;   // parallel to adjacency_
};

}  // namespace mcs::graph
