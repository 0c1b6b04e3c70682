// Synthetic graph generators — the dataset substitute for Graphalytics
// (DESIGN.md §5): Erdős–Rényi (uniform), Barabási–Albert (preferential
// attachment, heavy-tailed degrees like social networks), R-MAT/Kronecker
// (the Graph500/LDBC-Datagen family), and 2D grids (meshes / road-like).
#pragma once

#include "graph/graph.hpp"
#include "sim/random.hpp"

namespace mcs::graph {

/// G(n, m): `edge_count` uniformly random edges (no self loops).
[[nodiscard]] Graph erdos_renyi(VertexId n, std::size_t edge_count,
                                sim::Rng& rng, bool undirected = true);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices with probability proportional to degree.
[[nodiscard]] Graph barabasi_albert(VertexId n, std::size_t attach,
                                    sim::Rng& rng);

/// R-MAT with 2^scale vertices and edge_factor * 2^scale edges; default
/// partition probabilities are the Graph500 values (0.57/0.19/0.19/0.05).
struct RmatConfig {
  double a = 0.57, b = 0.19, c = 0.19, d = 0.05;
  bool undirected = true;
};
[[nodiscard]] Graph rmat(unsigned scale, std::size_t edge_factor,
                         sim::Rng& rng, RmatConfig config = {});

}  // namespace mcs::graph
