#include "graph/algorithms.hpp"

#include <algorithm>
#include <map>
#include <queue>

namespace mcs::graph {

std::vector<std::uint32_t> bfs(const Graph& g, VertexId source) {
  std::vector<std::uint32_t> depth(g.vertex_count(), kUnreachable);
  if (source >= g.vertex_count()) return depth;
  std::queue<VertexId> frontier;
  depth[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const VertexId v = frontier.front();
    frontier.pop();
    for (VertexId w : g.neighbors(v)) {
      if (depth[w] == kUnreachable) {
        depth[w] = depth[v] + 1;
        frontier.push(w);
      }
    }
  }
  return depth;
}

std::vector<double> pagerank(const Graph& g, std::size_t iterations,
                             double damping) {
  const auto n = static_cast<double>(g.vertex_count());
  if (g.vertex_count() == 0) return {};
  std::vector<double> rank(g.vertex_count(), 1.0 / n);
  std::vector<double> next(g.vertex_count(), 0.0);
  for (std::size_t it = 0; it < iterations; ++it) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto deg = g.out_degree(v);
      if (deg == 0) {
        dangling += rank[v];
        continue;
      }
      const double share = rank[v] / static_cast<double>(deg);
      for (VertexId w : g.neighbors(v)) next[w] += share;
    }
    const double base = (1.0 - damping) / n + damping * dangling / n;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      next[v] = base + damping * next[v];
    }
    // Note the dangling redistribution is folded into base (damped).
    rank.swap(next);
  }
  return rank;
}

std::vector<VertexId> wcc(const Graph& g) {
  // Union-find with path halving; directed arcs treated symmetrically.
  std::vector<VertexId> parent(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) parent[v] = v;
  auto find = [&](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      VertexId a = find(v), b = find(w);
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      parent[b] = a;  // smaller id wins -> canonical labels
    }
  }
  std::vector<VertexId> label(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) label[v] = find(v);
  return label;
}

std::vector<VertexId> cdlp(const Graph& g, std::size_t iterations) {
  std::vector<VertexId> label(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) label[v] = v;
  std::vector<VertexId> next(g.vertex_count());
  std::map<VertexId, std::size_t> freq;
  for (std::size_t it = 0; it < iterations; ++it) {
    bool changed = false;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      const auto nbrs = g.neighbors(v);
      if (nbrs.empty()) {
        next[v] = label[v];
        continue;
      }
      freq.clear();
      for (VertexId w : nbrs) ++freq[label[w]];
      // Most frequent label; ties -> smallest label (Graphalytics rule).
      VertexId best = label[v];
      std::size_t best_count = 0;
      for (const auto& [lab, count] : freq) {
        if (count > best_count) {  // map iterates ascending: first max wins
          best = lab;
          best_count = count;
        }
      }
      next[v] = best;
      changed = changed || next[v] != label[v];
    }
    label.swap(next);
    if (!changed) break;
  }
  return label;
}

namespace {

// Simple-graph semantics even on multigraphs (R-MAT/BA generators emit
// duplicate edges): every neighbourhood is deduplicated and self loops
// are dropped before counting. Shared by lcc() and lcc_parallel() so the
// two provably run the same arithmetic.
std::vector<VertexId> unique_neighbors(const Graph& g, VertexId u) {
  const auto nbrs = g.neighbors(u);
  std::vector<VertexId> set(nbrs.begin(), nbrs.end());
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  set.erase(std::remove(set.begin(), set.end(), u), set.end());
  return set;
}

double lcc_of_vertex(const Graph& g, VertexId v) {
  const std::vector<VertexId> set = unique_neighbors(g, v);
  const std::size_t d = set.size();
  if (d < 2) return 0.0;
  std::size_t links = 0;
  for (VertexId w : set) {
    for (VertexId x : unique_neighbors(g, w)) {
      if (x == v) continue;
      if (std::binary_search(set.begin(), set.end(), x)) ++links;
    }
  }
  // For undirected storage each triangle edge is seen twice (w->x and
  // x->w); normalize by the full ordered-pair count d*(d-1).
  return static_cast<double>(links) /
         (static_cast<double>(d) * static_cast<double>(d - 1));
}

}  // namespace

// mcs-lint: allow(R1) — the sequential reference ParallelKernelTest
// (tests/graph_test.cpp) diffs lcc_parallel against.
std::vector<double> lcc(const Graph& g) {
  std::vector<double> coeff(g.vertex_count(), 0.0);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    coeff[v] = lcc_of_vertex(g, v);
  }
  return coeff;
}

std::vector<double> sssp(const Graph& g, VertexId source) {
  std::vector<double> dist(g.vertex_count(), kInfDistance);
  if (source >= g.vertex_count()) return dist;
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    const auto nbrs = g.neighbors(v);
    const auto ws = g.weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double nd = d + ws[i];
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        heap.emplace(nd, nbrs[i]);
      }
    }
  }
  return dist;
}

// ---- deterministic parallel kernels -----------------------------------------

namespace {

// In-neighbor CSR ("transpose"): in_src lists, for each target vertex, the
// sources of its incoming arcs in ascending source order (counting sort is
// stable). That order is exactly the order in which the sequential push
// kernel accumulates into each target, which is what makes the parallel
// pull bit-identical.
struct Transpose {
  std::vector<std::size_t> offsets;  // n+1
  std::vector<VertexId> src;
};

Transpose build_transpose(const Graph& g) {
  const VertexId n = g.vertex_count();
  Transpose t;
  t.offsets.assign(n + 1, 0);
  for (VertexId w : g.adjacency()) ++t.offsets[w + 1];
  for (VertexId v = 0; v < n; ++v) t.offsets[v + 1] += t.offsets[v];
  // mcs-lint: allow(H3) — building the transpose allocates its O(m) output
  // by definition; one allocation per algorithm call, not per edge.
  t.src.resize(g.arc_count());
  std::vector<std::size_t> cursor(t.offsets.begin(), t.offsets.end() - 1);
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : g.neighbors(v)) t.src[cursor[w]++] = v;
  }
  return t;
}

}  // namespace

std::vector<double> pagerank_parallel(const Graph& g,
                                      parallel::ThreadPool& pool,
                                      std::size_t iterations, double damping) {
  const auto n = static_cast<double>(g.vertex_count());
  if (g.vertex_count() == 0) return {};
  const Transpose t = build_transpose(g);
  // Dangling vertices in ascending order: the per-iteration mass fold runs
  // sequentially over this list, replaying the reference association order.
  std::vector<VertexId> dangling_vertices;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.out_degree(v) == 0) dangling_vertices.push_back(v);
  }
  std::vector<double> rank(g.vertex_count(), 1.0 / n);
  std::vector<double> next(g.vertex_count(), 0.0);
  for (std::size_t it = 0; it < iterations; ++it) {
    double dangling = 0.0;
    for (VertexId v : dangling_vertices) dangling += rank[v];
    const double base = (1.0 - damping) / n + damping * dangling / n;
    parallel::parallel_for(
        pool, 0, g.vertex_count(),
        // mcs-lint: hot
        [&](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
          for (std::size_t v = lo; v < hi; ++v) {
            double sum = 0.0;
            for (std::size_t a = t.offsets[v]; a < t.offsets[v + 1]; ++a) {
              const VertexId u = t.src[a];
              // Same division the sequential kernel performs for its
              // `share`; IEEE-754 makes it bitwise reproducible.
              sum += rank[u] / static_cast<double>(g.out_degree(u));
            }
            next[v] = base + damping * sum;
          }
        });
    rank.swap(next);
  }
  return rank;
}

std::vector<VertexId> wcc_parallel(const Graph& g,
                                   parallel::ThreadPool& pool) {
  const VertexId n = g.vertex_count();
  std::vector<VertexId> cur(n);
  for (VertexId v = 0; v < n; ++v) cur[v] = v;
  if (n == 0) return cur;

  // Directed arcs must propagate labels both ways ("weakly" connected);
  // pulling from the transpose avoids scatter races entirely.
  const bool need_reverse = !g.undirected();
  Transpose rev;
  if (need_reverse) rev = build_transpose(g);

  std::vector<VertexId> next(n);
  const std::size_t chunks = parallel::default_chunk_count(n);
  std::vector<std::uint8_t> chunk_changed(chunks, 0);
  auto run_round = [&](auto&& update) {
    std::fill(chunk_changed.begin(), chunk_changed.end(), 0);
    parallel::parallel_for(
        pool, 0, n,
        [&](std::size_t lo, std::size_t hi, std::size_t chunk) {
          bool changed = false;
          for (std::size_t v = lo; v < hi; ++v) {
            const VertexId m = update(static_cast<VertexId>(v));
            changed = changed || m != cur[v];
            next[v] = m;
          }
          chunk_changed[chunk] = changed ? 1 : 0;
        },
        chunks);
    cur.swap(next);
    bool any = false;
    for (std::uint8_t c : chunk_changed) any = any || c != 0;
    return any;
  };

  for (;;) {
    // Hook: adopt the smallest label in the closed neighbourhood.
    bool changed = run_round([&](VertexId v) {
      VertexId m = cur[v];
      for (VertexId w : g.neighbors(v)) m = std::min(m, cur[w]);
      if (need_reverse) {
        for (std::size_t a = rev.offsets[v]; a < rev.offsets[v + 1]; ++a) {
          m = std::min(m, cur[rev.src[a]]);
        }
      }
      return m;
    });
    // Shortcut: pointer-jump label chains until stable (labels are vertex
    // ids of the same component, so cur[cur[v]] is always defined).
    while (run_round([&](VertexId v) { return cur[cur[v]]; })) {
      changed = true;
    }
    if (!changed) break;
  }
  return cur;
}

std::vector<double> lcc_parallel(const Graph& g, parallel::ThreadPool& pool) {
  std::vector<double> coeff(g.vertex_count(), 0.0);
  parallel::parallel_for(
      pool, 0, g.vertex_count(),
      [&](std::size_t lo, std::size_t hi, std::size_t /*chunk*/) {
        for (std::size_t v = lo; v < hi; ++v) {
          coeff[v] = lcc_of_vertex(g, static_cast<VertexId>(v));
        }
      });
  return coeff;
}

}  // namespace mcs::graph
