// The Pregel sub-ecosystem of Fig. 1: a BSP ("think like a vertex")
// execution engine over hash-partitioned graph data, with a timing model
// for the simulated cluster (compute per active vertex, message volume,
// cross-partition traffic over the oversubscribed core, barrier latency).
//
// Semantics follow Pregel/Valiant BSP (the paper lists "computational
// models including CSP and Valiant's BSP" among the imports from
// Distributed Systems, §3.5): messages sent in superstep S are delivered
// in S+1; a vertex halts by returning false and is reactivated by incoming
// messages. Values and messages are doubles — sufficient for the
// Graphalytics kernels (PageRank is the one built in).
// The superstep compute loop fans out over parallel::ThreadPool in fixed
// contiguous vertex chunks; per-chunk send buffers are replayed in chunk
// order, so message delivery order, values, and the modelled timing stats
// are all bit-identical to the sequential engine at any thread count.
// Compute functions may read shared state but must only write their own
// vertex's value (the built-in PageRank does).
#pragma once

#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"

namespace mcs::bigdata {

struct PregelConfig {
  std::size_t workers = 4;
  double barrier_seconds = 0.001;      ///< per-superstep sync cost
};

struct PregelStats {
  std::size_t supersteps = 0;
  double wall_seconds = 0.0;           ///< modelled cluster time
  std::uint64_t total_messages = 0;
  std::uint64_t cross_messages = 0;    ///< crossed a partition boundary
  std::vector<std::size_t> active_per_superstep;
};

class PregelEngine {
 public:
  using SendFn = std::function<void(graph::VertexId, double)>;
  /// compute(v, value, incoming, send, superstep) -> stay active?
  using ComputeFn = std::function<bool(
      graph::VertexId, double&, const std::vector<double>&, const SendFn&,
      std::size_t)>;

  /// `pool` runs the superstep compute loop; defaults to the process-wide
  /// parallel::default_pool(). Results do not depend on the pool size.
  PregelEngine(const graph::Graph& g, PregelConfig config,
               parallel::ThreadPool* pool = nullptr);

  /// Runs until no vertex is active and no messages are in flight, or
  /// until max_supersteps. `values` must have one entry per vertex.
  PregelStats run(std::vector<double>& values, const ComputeFn& compute,
                  std::size_t max_supersteps);

  [[nodiscard]] std::size_t worker_of(graph::VertexId v) const {
    return v % config_.workers;
  }

 private:
  const graph::Graph& g_;
  PregelConfig config_;
  parallel::ThreadPool* pool_;
};

// ---- PageRank as a vertex program (cross-checked against
// ---- graph/algorithms.hpp by the test suite) ----------------------------------

struct PregelRun {
  std::vector<double> values;
  PregelStats stats;
};

[[nodiscard]] PregelRun pregel_pagerank(const graph::Graph& g,
                                        std::size_t iterations,
                                        PregelConfig config = {});

}  // namespace mcs::bigdata
