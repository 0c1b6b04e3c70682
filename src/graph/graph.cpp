#include "graph/graph.hpp"

#include <stdexcept>

namespace mcs::graph {

Graph::Graph(VertexId vertex_count, const std::vector<Edge>& edges,
             bool undirected)
    : n_(vertex_count), undirected_(undirected) {
  // Counting sort with no scratch arrays: degrees are counted directly into
  // offsets_, the fill phase advances offsets_ in place (acting as the
  // cursor array), and one backward shift restores the CSR invariant.
  offsets_.assign(n_ + 1, 0);
  for (const Edge& e : edges) {
    if (e.src >= n_ || e.dst >= n_) {
      throw std::invalid_argument("Graph: edge endpoint out of range");
    }
    ++offsets_[e.src + 1];
    if (undirected_) ++offsets_[e.dst + 1];
  }
  for (VertexId v = 0; v < n_; ++v) offsets_[v + 1] += offsets_[v];

  adjacency_.resize(offsets_[n_]);
  edge_weights_.resize(offsets_[n_]);
  auto place = [this](VertexId from, VertexId to, double w) {
    const std::size_t at = offsets_[from]++;
    adjacency_[at] = to;
    edge_weights_[at] = w;
  };
  for (const Edge& e : edges) {
    place(e.src, e.dst, e.weight);
    if (undirected_) place(e.dst, e.src, e.weight);
  }
  // offsets_[v] now holds the END of v's range; shift right to restore
  // offsets_[v] = start of v's range.
  for (VertexId v = n_; v > 0; --v) offsets_[v] = offsets_[v - 1];
  offsets_[0] = 0;
}

std::span<const VertexId> Graph::neighbors(VertexId v) const {
  if (v >= n_) throw std::out_of_range("Graph::neighbors");
  return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::span<const double> Graph::weights(VertexId v) const {
  if (v >= n_) throw std::out_of_range("Graph::weights");
  return {edge_weights_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
}

std::size_t Graph::out_degree(VertexId v) const {
  if (v >= n_) throw std::out_of_range("Graph::out_degree");
  return offsets_[v + 1] - offsets_[v];
}

}  // namespace mcs::graph
