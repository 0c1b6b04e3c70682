// Tests for the Fig. 1 big-data stack: storage engine, MapReduce
// (functional + simulated), Pregel BSP engine (cross-checked against the
// sequential kernels), and the dataflow language (src/bigdata).
#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "bigdata/dataflow.hpp"
#include "bigdata/mapreduce.hpp"
#include "bigdata/pregel.hpp"
#include "bigdata/storage.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace mcs::bigdata {
namespace {

infra::Datacenter make_dc(std::size_t racks = 3, std::size_t per_rack = 4) {
  infra::Datacenter dc("bd", "eu");
  dc.add_uniform_racks(racks, per_rack, infra::ResourceVector{8, 32, 0}, 1.0);
  return dc;
}

// ---- storage engine ------------------------------------------------------------

TEST(StorageTest, SplitsIntoBlocksWithReplicas) {
  auto dc = make_dc();
  StorageEngine storage(dc, {}, sim::Rng(3));
  const DatasetId id = storage.store("logs", 1000.0);
  const auto& blocks = storage.blocks(id);
  EXPECT_EQ(blocks.size(), 8u);  // ceil(1000/128)
  double total = 0.0;
  for (const Block& b : blocks) {
    EXPECT_EQ(b.replicas.size(), 3u);
    // Replicas are distinct machines.
    EXPECT_NE(b.replicas[0], b.replicas[1]);
    total += b.size_mb;
  }
  EXPECT_DOUBLE_EQ(total, 1000.0);
}

TEST(StorageTest, RackAwarePlacement) {
  auto dc = make_dc(3, 4);
  StorageEngine storage(dc, {}, sim::Rng(3));
  const DatasetId id = storage.store("data", 5000.0);
  std::size_t second_same_rack = 0, third_other_rack = 0, n = 0;
  for (const Block& b : storage.blocks(id)) {
    if (b.replicas.size() < 3) continue;
    ++n;
    if (dc.rack_of(b.replicas[0]) == dc.rack_of(b.replicas[1])) {
      ++second_same_rack;
    }
    if (dc.rack_of(b.replicas[2]) != dc.rack_of(b.replicas[0])) {
      ++third_other_rack;
    }
  }
  ASSERT_GT(n, 0u);
  // HDFS-style: second replica rack-local, third off-rack.
  EXPECT_EQ(second_same_rack, n);
  EXPECT_EQ(third_other_rack, n);
}

TEST(StorageTest, LocalityClassesAndReadTimes) {
  auto dc = make_dc(2, 2);
  StorageEngine::Config config;
  StorageEngine storage(dc, config, sim::Rng(3));
  Block b;
  b.size_mb = 128.0;
  b.replicas = {0};
  EXPECT_EQ(storage.locality(b, 0), Locality::kLocal);
  EXPECT_EQ(storage.locality(b, 1), Locality::kRackLocal);
  EXPECT_EQ(storage.locality(b, 2), Locality::kRemote);
  EXPECT_LT(storage.read_seconds(b, 0), storage.read_seconds(b, 1));
  EXPECT_LT(storage.read_seconds(b, 1), storage.read_seconds(b, 2));
}

TEST(StorageTest, InvalidUseThrows) {
  auto dc = make_dc();
  StorageEngine storage(dc, {}, sim::Rng(1));
  EXPECT_THROW((void)storage.store("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)storage.blocks(99), std::out_of_range);
}

// ---- functional MapReduce --------------------------------------------------------

TEST(MapReduceTest, WordCountIsCorrect) {
  const auto counts = word_count(
      {"the quick brown fox", "THE lazy dog", "the fox."});
  EXPECT_EQ(counts.at("the"), 3u);
  EXPECT_EQ(counts.at("fox"), 2u);
  EXPECT_EQ(counts.at("dog"), 1u);
  EXPECT_EQ(counts.count("cat"), 0u);
}

TEST(MapReduceTest, CustomJobAggregates) {
  FunctionalMapReduce<int, std::string, int> parity(
      [](const int& x) {
        return std::vector<std::pair<std::string, int>>{
            {x % 2 == 0 ? "even" : "odd", x}};
      },
      [](const std::string&, const std::vector<int>& vs) {
        int sum = 0;
        for (int v : vs) sum += v;
        return sum;
      });
  const auto result = parity.run({1, 2, 3, 4, 5});
  EXPECT_EQ(result.at("even"), 6);
  EXPECT_EQ(result.at("odd"), 9);
}

// ---- simulated MapReduce ------------------------------------------------------------

class MapReduceSimTest : public ::testing::Test {
 protected:
  infra::Datacenter dc_ = make_dc(3, 4);
  StorageEngine storage_{dc_, {}, sim::Rng(5)};
};

TEST_F(MapReduceSimTest, ProducesSaneTimeline) {
  const DatasetId data = storage_.store("input", 2560.0);  // 20 blocks
  MapReduceSimulation sim(dc_, storage_, sim::Rng(7));
  MapReduceJobConfig config;
  config.dataset = data;
  const auto stats = sim.run(config);
  EXPECT_EQ(stats.map_tasks, 20u);
  EXPECT_GT(stats.map_phase_seconds, 0.0);
  EXPECT_GT(stats.shuffle_seconds, 0.0);
  EXPECT_GT(stats.reduce_phase_seconds, 0.0);
  EXPECT_NEAR(stats.makespan_seconds,
              stats.map_phase_seconds + stats.shuffle_seconds +
                  stats.reduce_phase_seconds,
              1e-9);
  // Delay scheduling should keep most reads local with 3-way replication
  // on 12 machines.
  EXPECT_GT(stats.locality_fraction(), 0.5);
}

TEST_F(MapReduceSimTest, SpeculativeExecutionCutsStragglerTail) {
  const DatasetId data = storage_.store("input", 12800.0);  // 100 blocks
  MapReduceJobConfig config;
  config.dataset = data;
  config.straggler_cv = 1.2;  // severe stragglers
  config.speculative_execution = false;
  MapReduceSimulation sim1(dc_, storage_, sim::Rng(7));
  const auto plain = sim1.run(config);
  config.speculative_execution = true;
  MapReduceSimulation sim2(dc_, storage_, sim::Rng(7));
  const auto spec = sim2.run(config);
  EXPECT_GT(spec.speculative_copies, 0u);
  EXPECT_LT(spec.map_phase_seconds, plain.map_phase_seconds);
}

TEST_F(MapReduceSimTest, MoreMachinesShrinkMapPhase) {
  auto small_dc = make_dc(1, 2);
  StorageEngine small_storage(small_dc, {}, sim::Rng(5));
  const DatasetId small_data = small_storage.store("input", 2560.0);
  MapReduceSimulation sim_small(small_dc, small_storage, sim::Rng(7));
  MapReduceJobConfig config;
  config.dataset = small_data;
  const auto small = sim_small.run(config);

  const DatasetId big_data = storage_.store("input", 2560.0);
  config.dataset = big_data;
  MapReduceSimulation sim_big(dc_, storage_, sim::Rng(7));
  const auto big = sim_big.run(config);
  EXPECT_LT(big.map_phase_seconds, small.map_phase_seconds);
}

// ---- Pregel ---------------------------------------------------------------------------

// BFS, WCC and SSSP as one halting vertex program: a vertex that is seeded
// (superstep 0) or receives a smaller value keeps the minimum and sends it
// plus the edge's cost to every neighbour, then halts until a message
// reactivates it.
template <typename Seeded, typename Cost>
PregelRun min_relax(const graph::Graph& g, std::vector<double> values,
                    Seeded seeded, Cost cost) {
  PregelEngine engine(g, {});
  PregelRun run;
  run.values = std::move(values);
  run.stats = engine.run(
      run.values,
      [&](graph::VertexId v, double& value, const std::vector<double>& msgs,
          const PregelEngine::SendFn& send, std::size_t step) {
        bool improved = step == 0 && seeded(v);
        for (double m : msgs) {
          if (m < value) {
            value = m;
            improved = true;
          }
        }
        if (improved) {
          const auto nbrs = g.neighbors(v);
          for (std::size_t i = 0; i < nbrs.size(); ++i) {
            send(nbrs[i], value + cost(v, i));
          }
        }
        return false;
      },
      4 * g.vertex_count() + 2);
  return run;
}

TEST(PregelTest, BfsMatchesSequential) {
  sim::Rng rng(11);
  const graph::Graph g = graph::erdos_renyi(300, 900, rng);
  const auto seq = graph::bfs(g, 0);
  std::vector<double> init(g.vertex_count(),
                           static_cast<double>(graph::kUnreachable));
  init[0] = 0.0;
  const auto bsp = min_relax(
      g, init, [](graph::VertexId v) { return v == 0; },
      [](graph::VertexId, std::size_t) { return 1.0; });
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (seq[v] == graph::kUnreachable) {
      EXPECT_EQ(bsp.values[v], static_cast<double>(graph::kUnreachable));
    } else {
      EXPECT_DOUBLE_EQ(bsp.values[v], static_cast<double>(seq[v]));
    }
  }
  EXPECT_GT(bsp.stats.supersteps, 1u);
  EXPECT_GT(bsp.stats.total_messages, 0u);
}

TEST(PregelTest, WccMatchesSequential) {
  sim::Rng rng(12);
  const graph::Graph g = graph::erdos_renyi(200, 300, rng);  // sparse: many components
  const auto seq = graph::wcc(g);
  std::vector<double> init(g.vertex_count());
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    init[v] = static_cast<double>(v);
  }
  const auto bsp = min_relax(
      g, init, [](graph::VertexId) { return true; },
      [](graph::VertexId, std::size_t) { return 0.0; });
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_DOUBLE_EQ(bsp.values[v], static_cast<double>(seq[v]));
  }
}

TEST(PregelTest, SsspMatchesSequential) {
  sim::Rng rng(13);
  auto edges = std::vector<graph::Edge>{};
  const graph::Graph base = graph::erdos_renyi(150, 600, rng);
  // Rebuild with random weights.
  sim::Rng wrng(14);
  for (graph::VertexId v = 0; v < base.vertex_count(); ++v) {
    for (graph::VertexId w : base.neighbors(v)) {
      if (v < w) edges.push_back({v, w, wrng.uniform(1.0, 10.0)});
    }
  }
  const graph::Graph g(base.vertex_count(), edges, true);

  const auto seq = graph::sssp(g, 0);
  std::vector<double> init(g.vertex_count(), graph::kInfDistance);
  init[0] = 0.0;
  const auto bsp = min_relax(
      g, init, [](graph::VertexId v) { return v == 0; },
      [&g](graph::VertexId v, std::size_t i) { return g.weights(v)[i]; });
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (std::isinf(seq[v])) {
      EXPECT_TRUE(std::isinf(bsp.values[v]));
    } else {
      EXPECT_NEAR(bsp.values[v], seq[v], 1e-9);
    }
  }
}

TEST(PregelTest, PageRankMatchesSequentialWithoutDanglers) {
  // Grid: no dangling vertices, so the two formulations agree.
  const graph::Graph g = graph::grid2d(10, 10);
  const auto seq = graph::pagerank(g, 20);
  const auto bsp = pregel_pagerank(g, 20);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    EXPECT_NEAR(bsp.values[v], seq[v], 1e-9);
  }
}

TEST(PregelTest, MoreWorkersMoreCrossTraffic) {
  sim::Rng rng(15);
  const graph::Graph g = graph::erdos_renyi(400, 2000, rng);
  PregelConfig two;
  two.workers = 2;
  PregelConfig eight;
  eight.workers = 8;
  const auto r2 = pregel_pagerank(g, 5, two);
  const auto r8 = pregel_pagerank(g, 5, eight);
  EXPECT_EQ(r2.stats.total_messages, r8.stats.total_messages);
  EXPECT_LT(r2.stats.cross_messages, r8.stats.cross_messages);
}

TEST(PregelTest, TimingModelChargesBarriersAndComm) {
  const graph::Graph g = graph::grid2d(8, 8);
  PregelConfig config;
  config.barrier_seconds = 1.0;  // exaggerate
  const auto run = pregel_pagerank(g, 5, config);
  EXPECT_GE(run.stats.wall_seconds,
            static_cast<double>(run.stats.supersteps) * 1.0);
}

TEST(PregelTest, BadUsageThrows) {
  const graph::Graph g = graph::grid2d(2, 2);
  PregelConfig config;
  config.workers = 0;
  EXPECT_THROW(PregelEngine(g, config), std::invalid_argument);
  PregelEngine ok(g, {});
  std::vector<double> wrong_size(2);
  EXPECT_THROW(
      ok.run(wrong_size,
             [](graph::VertexId, double&, const std::vector<double>&,
                const PregelEngine::SendFn&, std::size_t) { return false; },
             5),
      std::invalid_argument);
}

TEST(PregelTest, ResultsAndStatsInvariantUnderComputePoolSize) {
  // The superstep loop fans out over a thread pool, but values, message
  // counts, and the modelled timing must be bitwise identical at any pool
  // size (chunk-ordered message replay + sequential cost fold).
  sim::Rng rng(3);
  const graph::Graph g = graph::rmat(9, 6, rng);
  auto run_with = [&](std::size_t threads) {
    parallel::ThreadPool pool(threads);
    PregelEngine engine(g, {}, &pool);
    std::vector<double> values(g.vertex_count());
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
      values[v] = static_cast<double>(v);
    }
    PregelStats stats = engine.run(
        values,
        [&g](graph::VertexId v, double& value,
             const std::vector<double>& msgs,
             const PregelEngine::SendFn& send, std::size_t step) {
          bool improved = step == 0;
          for (double m : msgs) {
            if (m < value) {
              value = m;
              improved = true;
            }
          }
          if (improved) {
            for (graph::VertexId w : g.neighbors(v)) send(w, value);
          }
          return false;
        },
        50);
    return std::pair<std::vector<double>, PregelStats>(std::move(values),
                                                       std::move(stats));
  };
  const auto [v1, s1] = run_with(1);
  // The halting min-label program converges to the sequential WCC labels.
  const std::vector<graph::VertexId> labels = graph::wcc(g);
  EXPECT_EQ(v1, std::vector<double>(labels.begin(), labels.end()));
  for (std::size_t threads : {2u, 8u}) {
    const auto [vn, sn] = run_with(threads);
    EXPECT_EQ(v1, vn);
    EXPECT_EQ(s1.supersteps, sn.supersteps);
    EXPECT_EQ(s1.total_messages, sn.total_messages);
    EXPECT_EQ(s1.cross_messages, sn.cross_messages);
    EXPECT_EQ(s1.wall_seconds, sn.wall_seconds);  // bitwise, not NEAR
    EXPECT_EQ(s1.active_per_superstep, sn.active_per_superstep);
  }
}

// ---- dataflow -------------------------------------------------------------------------

TEST(DataflowTest, MapFilterGroupPipeline) {
  const auto result = Dataflow::from({{"a", 1}, {"b", 2}, {"a", 3}, {"c", 4}})
                          .map([](const Record& r) {
                            return Record{r.key, r.value * 10};
                          })
                          .filter([](const Record& r) { return r.value > 15; })
                          .group_sum()
                          .collect();
  // a: 30 (10 filtered out), b: 20, c: 40 — sorted by key.
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], (Record{"a", 30}));
  EXPECT_EQ(result[1], (Record{"b", 20}));
  EXPECT_EQ(result[2], (Record{"c", 40}));
}

TEST(DataflowTest, StageFusionRules) {
  const auto df = Dataflow::from({})
                      .map([](const Record& r) { return r; })
                      .filter([](const Record&) { return true; })
                      .group_sum()
                      .map([](const Record& r) { return r; })
                      .group_sum();
  const auto plan = df.explain();
  ASSERT_EQ(plan.size(), 3u);  // narrow ops fused, 2 shuffles
  EXPECT_NE(plan[0].find("map -> filter -> shuffle"), std::string::npos);
}

TEST(DataflowTest, LazyUntilCollect) {
  int calls = 0;
  const auto df = Dataflow::from({{"a", 1}}).map([&](const Record& r) {
    ++calls;
    return r;
  });
  EXPECT_EQ(calls, 0);  // nothing ran yet
  (void)df.collect();
  EXPECT_EQ(calls, 1);
}

TEST(DataflowTest, EmptyPipeline) {
  EXPECT_TRUE(Dataflow::from({}).group_sum().collect().empty());
}

}  // namespace
}  // namespace mcs::bigdata
