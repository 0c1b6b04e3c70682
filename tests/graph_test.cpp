// Tests for the graph substrate: CSR structure, generators, and the six
// Graphalytics kernels (src/graph).
#include <functional>
#include <gtest/gtest.h>

#include <set>

#include "fixtures.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace mcs::graph {
namespace {

Graph path4() {
  // 0 - 1 - 2 - 3 (undirected path)
  return Graph(4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}}, true);
}

Graph triangle_plus_tail() {
  // Triangle 0-1-2 with a tail 2-3.
  return Graph(4, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 1.0}}, true);
}

// ---- CSR structure -----------------------------------------------------------

TEST(GraphTest, CsrStructure) {
  const Graph g = path4();
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.arc_count(), 6u);  // 3 undirected edges
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 2u);
  EXPECT_DOUBLE_EQ(mean_degree(g), 1.5);
  EXPECT_EQ(max_degree(g), 2u);
}

TEST(GraphTest, DirectedKeepsArcDirection) {
  const Graph g(3, {{0, 1, 1.0}, {1, 2, 1.0}}, false);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(2), 0u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
}

TEST(GraphTest, OutOfRangeEdgeThrows) {
  EXPECT_THROW(Graph(2, {{0, 5, 1.0}}, false), std::invalid_argument);
}

TEST(GraphTest, WeightsParallelToAdjacency) {
  const Graph g(3, {{0, 1, 2.5}, {0, 2, 7.0}}, false);
  const auto nbrs = g.neighbors(0);
  const auto ws = g.weights(0);
  ASSERT_EQ(nbrs.size(), 2u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == 1) { EXPECT_DOUBLE_EQ(ws[i], 2.5); }
    if (nbrs[i] == 2) { EXPECT_DOUBLE_EQ(ws[i], 7.0); }
  }
}

// ---- generators ----------------------------------------------------------------

TEST(GeneratorTest, ErdosRenyiHasRequestedEdges) {
  sim::Rng rng(3);
  const Graph g = erdos_renyi(100, 500, rng);
  EXPECT_EQ(g.vertex_count(), 100u);
  EXPECT_EQ(g.arc_count(), 1000u);  // undirected: 2 arcs per edge
}

TEST(GeneratorTest, BarabasiAlbertIsHeavyTailed) {
  sim::Rng rng(3);
  const Graph ba = barabasi_albert(2000, 2, rng);
  sim::Rng rng2(3);
  const Graph er = erdos_renyi(2000, ba.arc_count() / 2, rng2);
  // Preferential attachment produces a far larger hub than uniform.
  EXPECT_GT(max_degree(ba), max_degree(er) * 2);
}

TEST(GeneratorTest, RmatSizesArePowersOfTwo) {
  sim::Rng rng(3);
  const Graph g = rmat(10, 8, rng);
  EXPECT_EQ(g.vertex_count(), 1024u);
  EXPECT_EQ(g.arc_count(), 2u * 8 * 1024);  // undirected
}

TEST(GeneratorTest, RmatIsSkewed) {
  sim::Rng rng(3);
  const Graph g = rmat(12, 8, rng);
  // Graph500 parameters concentrate edges on low ids: hub degree far above
  // the mean.
  EXPECT_GT(static_cast<double>(max_degree(g)), 10.0 * mean_degree(g));
}

TEST(GeneratorTest, Grid2dDegreesBounded) {
  const Graph g = grid2d(5, 7);
  EXPECT_EQ(g.vertex_count(), 35u);
  EXPECT_EQ(max_degree(g), 4u);
  // Corner vertex 0 has exactly 2 neighbours.
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST(GeneratorTest, DegenerateParametersThrow) {
  sim::Rng rng(1);
  EXPECT_THROW((void)erdos_renyi(1, 5, rng), std::invalid_argument);
  EXPECT_THROW((void)barabasi_albert(10, 0, rng), std::invalid_argument);
  EXPECT_THROW((void)rmat(0, 8, rng), std::invalid_argument);
}

// ---- BFS -----------------------------------------------------------------------

TEST(AlgorithmTest, BfsDepthsOnPath) {
  const auto depth = bfs(path4(), 0);
  EXPECT_EQ(depth, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(AlgorithmTest, BfsUnreachable) {
  const Graph g(3, {{0, 1, 1.0}}, true);  // vertex 2 isolated
  const auto depth = bfs(g, 0);
  EXPECT_EQ(depth[2], kUnreachable);
}

// ---- PageRank -------------------------------------------------------------------

TEST(AlgorithmTest, PageRankSumsToOneAndRanksHubs) {
  sim::Rng rng(5);
  const Graph g = barabasi_albert(500, 3, rng);
  const auto pr = pagerank(g, 30);
  double sum = 0.0;
  for (double r : pr) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // The max-degree hub outranks the median vertex decisively.
  VertexId hub = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.out_degree(v) > g.out_degree(hub)) hub = v;
  }
  std::vector<double> sorted = pr;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(pr[hub], sorted[sorted.size() / 2] * 3);
}

TEST(AlgorithmTest, PageRankUniformOnSymmetricGraph) {
  // On a cycle every vertex is equivalent.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 10; ++v) edges.push_back({v, (v + 1) % 10, 1.0});
  const Graph g(10, edges, true);
  const auto pr = pagerank(g, 50);
  for (double r : pr) EXPECT_NEAR(r, 0.1, 1e-9);
}

// ---- WCC -----------------------------------------------------------------------

TEST(AlgorithmTest, WccFindsComponents) {
  // Two components: {0,1,2} and {3,4}.
  const Graph g(5, {{0, 1, 1}, {1, 2, 1}, {3, 4, 1}}, true);
  const auto label = wcc(g);
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[1], label[2]);
  EXPECT_EQ(label[3], label[4]);
  EXPECT_NE(label[0], label[3]);
  // Canonical labels: smallest member id.
  EXPECT_EQ(label[0], 0u);
  EXPECT_EQ(label[3], 3u);
}

TEST(AlgorithmTest, WccOnDirectedGraphIsWeak) {
  const Graph g(3, {{0, 1, 1}, {2, 1, 1}}, false);  // 0->1<-2
  const auto label = wcc(g);
  EXPECT_EQ(label[0], label[2]);  // weakly connected through 1
}

// ---- CDLP -----------------------------------------------------------------------

TEST(AlgorithmTest, CdlpSeparatesCliques) {
  // Two 4-cliques joined by a single bridge edge.
  std::vector<Edge> edges;
  for (VertexId a = 0; a < 4; ++a)
    for (VertexId b = a + 1; b < 4; ++b) edges.push_back({a, b, 1});
  for (VertexId a = 4; a < 8; ++a)
    for (VertexId b = a + 1; b < 8; ++b) edges.push_back({a, b, 1});
  edges.push_back({3, 4, 1});
  const Graph g(8, edges, true);
  const auto label = cdlp(g, 20);
  // Each clique converges to one label; the two differ.
  EXPECT_EQ(label[0], label[1]);
  EXPECT_EQ(label[1], label[2]);
  EXPECT_EQ(label[5], label[6]);
  EXPECT_NE(label[0], label[5]);
}

// ---- LCC ------------------------------------------------------------------------

TEST(AlgorithmTest, LccOnTriangleWithTail) {
  const auto coeff = lcc(triangle_plus_tail());
  // Vertices 0 and 1: both neighbours connected -> 1.0.
  EXPECT_DOUBLE_EQ(coeff[0], 1.0);
  EXPECT_DOUBLE_EQ(coeff[1], 1.0);
  // Vertex 2 has neighbours {0,1,3}: one link (0-1) of 3 possible pairs.
  EXPECT_NEAR(coeff[2], 1.0 / 3.0, 1e-12);
  // Vertex 3 has a single neighbour: 0 by convention.
  EXPECT_DOUBLE_EQ(coeff[3], 0.0);
}

TEST(AlgorithmTest, LccCompleteGraphIsAllOnes) {
  std::vector<Edge> edges;
  for (VertexId a = 0; a < 6; ++a)
    for (VertexId b = a + 1; b < 6; ++b) edges.push_back({a, b, 1});
  const auto coeff = lcc(Graph(6, edges, true));
  for (double c : coeff) EXPECT_NEAR(c, 1.0, 1e-12);
}

// ---- SSSP -----------------------------------------------------------------------

TEST(AlgorithmTest, SsspUsesWeights) {
  // 0 ->(5) 1 ->(5) 2 and a shortcut 0 ->(20) 2: path through 1 wins.
  const Graph g(3, {{0, 1, 5.0}, {1, 2, 5.0}, {0, 2, 20.0}}, false);
  const auto dist = sssp(g, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 5.0);
  EXPECT_DOUBLE_EQ(dist[2], 10.0);
}

TEST(AlgorithmTest, SsspMatchesBfsOnUnitWeights) {
  sim::Rng rng(9);
  const Graph g = erdos_renyi(300, 900, rng);
  const auto dist = sssp(g, 0);
  const auto depth = bfs(g, 0);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (depth[v] == kUnreachable) {
      EXPECT_TRUE(std::isinf(dist[v]));
    } else {
      EXPECT_DOUBLE_EQ(dist[v], static_cast<double>(depth[v]));
    }
  }
}

// ---- parallel kernels: bit-identical to the sequential reference ---------------
//
// The acceptance bar for the parallel substrate: at 1, 2, and 8 threads the
// parallel kernels return EXACTLY the bytes the sequential kernels return
// (EXPECT_EQ on double vectors is bitwise for non-NaN values).

class ParallelKernelTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  parallel::ThreadPool pool_{GetParam()};
};

TEST_P(ParallelKernelTest, PageRankBitIdentical) {
  for (std::uint64_t seed : {7u, 77u}) {
    sim::Rng rng(seed);
    const Graph g = rmat(11, 8, rng);
    EXPECT_EQ(pagerank_parallel(g, pool_, 20), pagerank(g, 20));
  }
  // Directed graph with dangling vertices: the sequential dangling-mass
  // fold must be replayed exactly.
  const Graph d(5, {{0, 1, 1}, {1, 2, 1}, {3, 0, 1}}, false);
  EXPECT_EQ(pagerank_parallel(d, pool_, 25), pagerank(d, 25));
}

TEST_P(ParallelKernelTest, WccBitIdentical) {
  sim::Rng rng(7);
  const Graph g = rmat(11, 4, rng);
  EXPECT_EQ(wcc_parallel(g, pool_), wcc(g));
  // Disconnected + directed cases.
  const Graph two(6, {{0, 1, 1}, {1, 2, 1}, {4, 3, 1}}, false);
  EXPECT_EQ(wcc_parallel(two, pool_), wcc(two));
  // Long path: exercises the pointer-jumping rounds.
  std::vector<Edge> chain;
  for (VertexId v = 0; v + 1 < 3000; ++v) chain.push_back({v + 1, v, 1.0});
  const Graph path(3000, chain, false);
  EXPECT_EQ(wcc_parallel(path, pool_), wcc(path));
}

TEST_P(ParallelKernelTest, LccBitIdentical) {
  sim::Rng rng(7);
  const Graph g = rmat(9, 6, rng);
  EXPECT_EQ(lcc_parallel(g, pool_), lcc(g));
  EXPECT_EQ(lcc_parallel(triangle_plus_tail(), pool_),
            lcc(triangle_plus_tail()));
}

TEST_P(ParallelKernelTest, BfsAndSsspBatchesMatchPerSourceRuns) {
  // The sequential kernels are re-entrant: a batch of per-source runs fanned
  // over the pool returns exactly what each run returns alone.
  sim::Rng rng(5);
  const Graph g = erdos_renyi(500, 2000, rng);
  const std::vector<VertexId> sources = {0, 17, 123, 499, 250};
  std::vector<std::vector<std::uint32_t>> depths(sources.size());
  std::vector<std::vector<double>> dists(sources.size());
  pool_.run_tasks(sources.size(), [&](std::size_t i) {
    depths[i] = bfs(g, sources[i]);
    dists[i] = sssp(g, sources[i]);
  });
  for (std::size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(depths[i], bfs(g, sources[i]));
    EXPECT_EQ(dists[i], sssp(g, sources[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelKernelTest,
                         ::testing::Values(1u, 2u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "threads" + std::to_string(info.param);
                         });

// ---- property sweep over generators (parameterized) ----------------------------

// The name is held inline, not as a std::string: gtest prints the parameter's
// raw bytes into the test name, and a std::string's leading heap pointer made
// that name shift with the heap layout of the test binary.
struct GenCase {
  char name[32];
  std::function<Graph(sim::Rng&)> make;
};

class GeneratorPropertyTest : public ::testing::TestWithParam<GenCase> {};

TEST_P(GeneratorPropertyTest, KernelsProduceConsistentResults) {
  sim::Rng rng(77);
  const Graph g = GetParam().make(rng);

  // WCC labels are canonical (label <= vertex id) and consistent with BFS
  // reachability from vertex 0.
  const auto labels = wcc(g);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_LE(labels[v], v);
  }
  const auto depth = bfs(g, 0);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (depth[v] != kUnreachable) { EXPECT_EQ(labels[v], labels[0]); }
  }
  // PageRank sums to ~1 and is positive.
  const auto pr = pagerank(g, 15);
  double sum = 0.0;
  for (double r : pr) {
    EXPECT_GT(r, 0.0);
    sum += r;
  }
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // LCC within [0,1].
  for (double c : lcc(g)) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Generators, GeneratorPropertyTest,
    ::testing::Values(
        GenCase{"er", [](sim::Rng& r) { return erdos_renyi(400, 1600, r); }},
        GenCase{"ba", [](sim::Rng& r) { return barabasi_albert(400, 3, r); }},
        GenCase{"rmat", [](sim::Rng& r) { return rmat(9, 6, r); }},
        GenCase{"grid", [](sim::Rng&) { return grid2d(20, 20); }}),
    [](const ::testing::TestParamInfo<GenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mcs::graph
