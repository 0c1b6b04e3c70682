// Experiment E4 — LDBC Graphalytics [42] (challenges C16, §6.6): the six
// kernels across three generator classes and three scales, reporting EVPS
// (edges-vertices per second, the Graphalytics throughput unit), strong
// scalability of the BSP engine across worker counts, and robustness
// (run-to-run variability) — the benchmark's three published dimensions.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>

#include "bigdata/pregel.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "metrics/report.hpp"
#include "metrics/stats.hpp"

namespace {

using namespace mcs;
using Clock = std::chrono::steady_clock;

double seconds_of(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

graph::Graph make_graph(const std::string& kind, unsigned scale,
                        sim::Rng& rng) {
  const auto n = static_cast<graph::VertexId>(1u << scale);
  if (kind == "rmat") return graph::rmat(scale, 8, rng);
  if (kind == "er") return graph::erdos_renyi(n, std::size_t{8} << scale, rng);
  return graph::barabasi_albert(n, 4, rng);  // "ba"
}

// --digest: FNV-1a over the raw bytes of every kernel result, printed as
// one hex line. The gate.exp_graphalytics ctest (scripts/gate.sh) runs this
// twice at MCS_THREADS=1 and twice at MCS_THREADS=8 and diffs the four
// digests — PR 1's bit-identical promise for the parallel kernels as a
// standing ctest instead of a one-off claim.
std::uint64_t fnv1a_bytes(const void* data, std::size_t len,
                          std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
std::uint64_t fnv1a_vec(const std::vector<T>& v, std::uint64_t h) {
  static_assert(std::is_trivially_copyable_v<T>);
  return v.empty() ? h : fnv1a_bytes(v.data(), v.size() * sizeof(T), h);
}

int run_digest() {
  const std::uint64_t seed = 42;
  std::uint64_t h = 1469598103934665603ull;
  auto& pool = parallel::default_pool();
  for (const std::string kind : {"rmat", "er", "ba"}) {
    sim::Rng rng(seed);
    const auto g = make_graph(kind, 13, rng);
    h = fnv1a_vec(graph::bfs(g, 0), h);
    h = fnv1a_vec(graph::pagerank_parallel(g, pool, 10), h);
    h = fnv1a_vec(graph::wcc_parallel(g, pool), h);
    h = fnv1a_vec(graph::cdlp(g, 5), h);
    h = fnv1a_vec(graph::lcc_parallel(g, pool), h);
    h = fnv1a_vec(graph::sssp(g, 0), h);
  }
  // The BSP engine's modelled statistics must replay too.
  sim::Rng rng(seed);
  const auto g = graph::rmat(13, 8, rng);
  for (std::size_t workers : {1u, 4u}) {
    bigdata::PregelConfig config;
    config.workers = workers;
    const auto run = bigdata::pregel_pagerank(g, 10, config);
    h = fnv1a_vec(run.values, h);
    h = fnv1a_bytes(&run.stats.total_messages,
                    sizeof(run.stats.total_messages), h);
    h = fnv1a_bytes(&run.stats.cross_messages,
                    sizeof(run.stats.cross_messages), h);
  }
  std::cout << std::hex << std::setfill('0') << std::setw(16) << h << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--digest") return run_digest();
  metrics::print_banner(std::cout,
                        "E4 — Graphalytics: 6 kernels x 3 datasets x scales");
  const std::uint64_t seed = 42;
  metrics::print_kv(std::cout, "seed", std::to_string(seed));
  metrics::print_kv(std::cout, "EVPS",
                    "(|V|+|E|) / kernel runtime — Graphalytics throughput");

  metrics::Table table({"dataset", "scale", "|V|", "|E|", "BFS", "PR", "WCC",
                        "CDLP", "LCC", "SSSP"});
  for (const std::string kind : {"rmat", "er", "ba"}) {
    for (unsigned scale : {12u, 14u, 16u}) {
      sim::Rng rng(seed);
      const auto g = make_graph(kind, scale, rng);
      std::vector<std::string> row = {
          kind, std::to_string(scale), std::to_string(g.vertex_count()),
          std::to_string(g.arc_count() / 2)};
      const double units =
          static_cast<double>(g.vertex_count()) +
          static_cast<double>(g.arc_count());
      auto evps = [&](const std::function<void()>& fn) {
        const double dt = seconds_of(fn);
        return metrics::Table::num(units / std::max(dt, 1e-9) / 1e6, 1);
      };
      // PR/WCC/LCC run the parallel kernels (bit-identical results to the
      // sequential ones; thread count from MCS_THREADS or the hardware).
      auto& pool = parallel::default_pool();
      row.push_back(evps([&] { (void)graph::bfs(g, 0); }));
      row.push_back(evps([&] { (void)graph::pagerank_parallel(g, pool, 10); }));
      row.push_back(evps([&] { (void)graph::wcc_parallel(g, pool); }));
      row.push_back(evps([&] { (void)graph::cdlp(g, 5); }));
      row.push_back(evps([&] { (void)graph::lcc_parallel(g, pool); }));
      row.push_back(evps([&] { (void)graph::sssp(g, 0); }));
      table.add_row(std::move(row));
    }
  }
  std::cout << "\nThroughput in M EVPS (higher is better):\n";
  table.print(std::cout);

  // Strong scalability of the distributed (BSP) engine.
  metrics::print_banner(
      std::cout, "Strong scalability: Pregel PageRank, modelled cluster time");
  sim::Rng rng(seed);
  const auto g = graph::rmat(15, 8, rng);
  double t1 = 0.0;
  metrics::Table scaling({"workers", "modelled time [s]", "speedup",
                          "cross-worker msg fraction"});
  for (std::size_t workers : {1u, 2u, 4u, 8u, 16u}) {
    bigdata::PregelConfig config;
    config.workers = workers;
    const auto run = bigdata::pregel_pagerank(g, 10, config);
    if (workers == 1) t1 = run.stats.wall_seconds;
    scaling.add_row(
        {std::to_string(workers),
         metrics::Table::num(run.stats.wall_seconds, 3),
         metrics::Table::num(t1 / run.stats.wall_seconds, 2),
         metrics::Table::pct(
             run.stats.total_messages == 0
                 ? 0.0
                 : static_cast<double>(run.stats.cross_messages) /
                       static_cast<double>(run.stats.total_messages))});
  }
  scaling.print(std::cout);

  // Robustness: run-to-run variability over generator seeds.
  metrics::print_banner(std::cout,
                        "Robustness: BFS runtime variability over 15 seeds");
  metrics::Accumulator times;
  for (std::uint64_t s = 0; s < 15; ++s) {
    sim::Rng r2(seed + s);
    const auto gg = graph::rmat(14, 8, r2);
    times.add(seconds_of([&] { (void)graph::bfs(gg, 0); }));
  }
  metrics::Table robust({"mean [ms]", "CV", "IQR [ms]"});
  robust.add_row({metrics::Table::num(times.mean() * 1e3, 2),
                  metrics::Table::num(times.cv(), 3),
                  metrics::Table::num(times.iqr() * 1e3, 2)});
  robust.print(std::cout);
  std::cout << "\nThe [42] shape: performance is a strong function of the\n"
               "P-A-D triangle (platform, algorithm, dataset) — LCC lags by\n"
               "orders of magnitude on skewed (rmat/ba) graphs, scalability\n"
               "saturates as cross-worker traffic grows.\n";
  return 0;
}
