// Regenerates Figure 1 ("A view into the ecosystem of Big Data
// processing") behaviourally: instantiates all four layers, registers the
// stack as a core::Ecosystem (validating the paper's ecosystem
// definition), and runs the two highlighted sub-ecosystems — MapReduce and
// Pregel — over the same storage engine, reporting per-layer activity.
#include <iostream>

#include "bigdata/dataflow.hpp"
#include "bigdata/mapreduce.hpp"
#include "bigdata/pregel.hpp"
#include "bigdata/storage.hpp"
#include "core/ecosystem.hpp"
#include "graph/generators.hpp"
#include "metrics/report.hpp"

int main() {
  using namespace mcs;
  metrics::print_banner(
      std::cout, "Figure 1 — The big-data processing ecosystem (executed)");

  // The ecosystem inventory, layer by layer, as the figure draws it.
  core::Ecosystem eco("big-data-processing");
  auto sys = [](const char* name, core::Layer layer, const char* owner) {
    core::SystemInfo s;
    s.name = name;
    s.layer = layer;
    s.owner = owner;
    return s;
  };
  eco.add_system(sys("dataflow-language", core::Layer::kHighLevelLanguage,
                     "mcs/bigdata"));
  eco.add_system(
      sys("block-store", core::Layer::kStorageEngine, "mcs/bigdata"));
  // The figure's two highlighted sub-ecosystems, each a programming model
  // over its execution engine.
  core::Ecosystem& mapreduce = eco.add_subecosystem("mapreduce");
  mapreduce.add_system(sys("mapreduce-model", core::Layer::kProgrammingModel,
                           "mcs/bigdata"));
  mapreduce.add_system(sys("mapreduce-engine", core::Layer::kExecutionEngine,
                           "mcs/bigdata"));
  core::Ecosystem& pregel = eco.add_subecosystem("pregel");
  pregel.add_system(sys("pregel-model", core::Layer::kProgrammingModel,
                        "mcs/bigdata"));
  pregel.add_system(sys("bsp-engine", core::Layer::kExecutionEngine,
                        "mcs/bigdata"));
  metrics::print_kv(std::cout, "qualifies as ecosystem (paper §2.1 test)",
                    eco.is_ecosystem() ? "yes" : "no");

  metrics::Table inventory({"Layer", "Components"});
  inventory.add_row({"High-Level Language", "dataflow-language"});
  inventory.add_row({"Programming Model", "mapreduce-model, pregel-model"});
  inventory.add_row({"Execution Engine", "mapreduce-engine, bsp-engine"});
  inventory.add_row({"Storage Engine", "block-store"});
  inventory.print(std::cout);

  // Shared substrate: a 12-machine datacenter with a replicated block store.
  infra::Datacenter dc("bd-dc", "eu");
  dc.add_uniform_racks(3, 4, infra::ResourceVector{8, 32, 0}, 1.0);
  bigdata::StorageEngine storage(dc, {}, sim::Rng(1));

  // --- MapReduce sub-ecosystem: dataflow query -> MR job on the cluster ----
  metrics::print_banner(std::cout, "MapReduce sub-ecosystem");
  const auto plan = bigdata::Dataflow::from({})
                        .map([](const bigdata::Record& r) { return r; })
                        .filter([](const bigdata::Record&) { return true; })
                        .group_sum();
  std::cout << "  high-level plan:\n";
  for (const auto& line : plan.explain()) std::cout << "    " << line << "\n";

  const auto dataset = storage.store("clickstream", 6400.0);  // 50 blocks
  bigdata::MapReduceSimulation mr(dc, storage, sim::Rng(2));
  bigdata::MapReduceJobConfig job;
  job.dataset = dataset;
  job.speculative_execution = true;
  const auto stats = mr.run(job);
  metrics::Table mr_table({"phase / metric", "value"});
  mr_table.add_row({"map tasks", std::to_string(stats.map_tasks)});
  mr_table.add_row({"map phase [s]",
                    metrics::Table::num(stats.map_phase_seconds, 1)});
  mr_table.add_row({"shuffle [s]", metrics::Table::num(stats.shuffle_seconds, 1)});
  mr_table.add_row({"reduce phase [s]",
                    metrics::Table::num(stats.reduce_phase_seconds, 1)});
  mr_table.add_row({"makespan [s]",
                    metrics::Table::num(stats.makespan_seconds, 1)});
  mr_table.add_row({"data-local map reads",
                    metrics::Table::pct(stats.locality_fraction())});
  mr_table.add_row({"speculative copies",
                    std::to_string(stats.speculative_copies)});
  mr_table.print(std::cout);

  // Functional correctness probe of the programming model.
  const auto counts = bigdata::word_count(
      {"the ecosystem of big data", "the data ecosystem"});
  metrics::print_kv(std::cout, "wordcount['the']",
                    std::to_string(counts.at("the")));
  metrics::print_kv(std::cout, "wordcount['ecosystem']",
                    std::to_string(counts.at("ecosystem")));

  // --- Pregel sub-ecosystem: BSP PageRank over the same cluster ------------
  metrics::print_banner(std::cout, "Pregel sub-ecosystem");
  sim::Rng grng(3);
  const auto g = graph::rmat(13, 8, grng);
  bigdata::PregelConfig pregel_config;
  pregel_config.workers = dc.machine_count();
  const auto run = bigdata::pregel_pagerank(g, 10, pregel_config);
  metrics::Table pregel_table({"metric", "value"});
  pregel_table.add_row({"graph", "R-MAT scale 13 (" +
                                     std::to_string(g.vertex_count()) +
                                     " vertices)"});
  pregel_table.add_row({"workers", std::to_string(pregel_config.workers)});
  pregel_table.add_row({"supersteps", std::to_string(run.stats.supersteps)});
  pregel_table.add_row({"messages", std::to_string(run.stats.total_messages)});
  pregel_table.add_row(
      {"cross-worker messages",
       metrics::Table::pct(static_cast<double>(run.stats.cross_messages) /
                           static_cast<double>(run.stats.total_messages))});
  pregel_table.add_row({"modelled cluster time [s]",
                        metrics::Table::num(run.stats.wall_seconds, 2)});
  pregel_table.print(std::cout);
  return 0;
}
