#include "graph/generators.hpp"

#include <stdexcept>

namespace mcs::graph {

Graph erdos_renyi(VertexId n, std::size_t edge_count, sim::Rng& rng,
                  bool undirected) {
  if (n < 2) throw std::invalid_argument("erdos_renyi: n < 2");
  std::vector<Edge> edges;
  edges.reserve(edge_count);
  for (std::size_t i = 0; i < edge_count; ++i) {
    VertexId u = static_cast<VertexId>(rng.uniform_int(0, n - 1));
    VertexId v = static_cast<VertexId>(rng.uniform_int(0, n - 1));
    while (v == u) v = static_cast<VertexId>(rng.uniform_int(0, n - 1));
    edges.push_back(Edge{u, v, 1.0});
  }
  return Graph(n, edges, undirected);
}

Graph barabasi_albert(VertexId n, std::size_t attach, sim::Rng& rng) {
  if (n < 2 || attach == 0) {
    throw std::invalid_argument("barabasi_albert: bad parameters");
  }
  // Repeated-endpoint trick: sampling a uniform position in the endpoint
  // log is sampling proportional to degree.
  std::vector<VertexId> endpoint_log;
  std::vector<Edge> edges;
  // Seed: a small clique over min(attach+1, n) vertices.
  const VertexId seed = static_cast<VertexId>(
      std::min<std::size_t>(attach + 1, n));
  for (VertexId u = 0; u < seed; ++u) {
    for (VertexId v = u + 1; v < seed; ++v) {
      edges.push_back(Edge{u, v, 1.0});
      endpoint_log.push_back(u);
      endpoint_log.push_back(v);
    }
  }
  for (VertexId v = seed; v < n; ++v) {
    for (std::size_t k = 0; k < attach; ++k) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(endpoint_log.size()) - 1));
      const VertexId target = endpoint_log[pick];
      edges.push_back(Edge{v, target, 1.0});
      endpoint_log.push_back(v);
      endpoint_log.push_back(target);
    }
  }
  return Graph(n, edges, /*undirected=*/true);
}

Graph rmat(unsigned scale, std::size_t edge_factor, sim::Rng& rng,
           RmatConfig config) {
  if (scale == 0 || scale > 28) throw std::invalid_argument("rmat: scale");
  const double sum = config.a + config.b + config.c + config.d;
  if (sum <= 0.99 || sum >= 1.01) {
    throw std::invalid_argument("rmat: probabilities must sum to 1");
  }
  const VertexId n = static_cast<VertexId>(1u << scale);
  const std::size_t m = edge_factor << scale;
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    VertexId u = 0, v = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
      const double r = rng.uniform();
      unsigned qu = 0, qv = 0;
      if (r < config.a) {
        // top-left
      } else if (r < config.a + config.b) {
        qv = 1;
      } else if (r < config.a + config.b + config.c) {
        qu = 1;
      } else {
        qu = 1;
        qv = 1;
      }
      u = (u << 1) | qu;
      v = (v << 1) | qv;
    }
    edges.push_back(Edge{u, v, 1.0});
  }
  return Graph(n, edges, config.undirected);
}

}  // namespace mcs::graph
