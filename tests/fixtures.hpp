// Builders and shape queries shared by the unit tests. Nothing outside
// tests/ uses them, so they live here rather than in src/ (lint rule R1):
// chain, fork-join and random layered jobs, a grid graph, and the DAG-width
// and degree statistics the generator tests check their output against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/random.hpp"
#include "workload/task.hpp"
#include "workload/workflow.hpp"

namespace mcs::workload {

/// `stages` sequential tasks, each depending on the previous one.
inline Job make_chain(JobId id, std::size_t stages, double work_each) {
  Job job;
  job.id = id;
  for (std::size_t i = 0; i < stages; ++i) {
    Task t;
    t.work_seconds = work_each;
    if (i > 0) t.deps.push_back(i - 1);
    job.tasks.push_back(std::move(t));
  }
  return job;
}

/// One source, `width` parallel tasks, one sink; repeated `stages` times.
inline Job make_fork_join(JobId id, std::size_t width, std::size_t stages,
                          double work_each) {
  Job job;
  job.id = id;
  for (std::size_t s = 0; s < stages; ++s) {
    Task src;
    src.work_seconds = work_each;
    if (s > 0) src.deps.push_back(job.tasks.size() - 1);
    job.tasks.push_back(std::move(src));
    const std::size_t src_idx = job.tasks.size() - 1;
    Task sink;
    sink.work_seconds = work_each;
    for (std::size_t w = 0; w < width; ++w) {
      Task t;
      t.work_seconds = work_each;
      t.deps.push_back(src_idx);
      job.tasks.push_back(std::move(t));
      sink.deps.push_back(job.tasks.size() - 1);
    }
    job.tasks.push_back(std::move(sink));
  }
  return job;
}

/// `n` tasks in `levels` index-range levels; each task past the first level
/// depends on 1..3 uniformly chosen tasks of earlier levels.
inline Job make_random_dag(JobId id, std::size_t n, std::size_t levels,
                           const WorkflowSizing& sizing, sim::Rng& rng) {
  Job job;
  job.id = id;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t level = i * levels / n;
    Task t;
    t.work_seconds =
        rng.lognormal_mean_cv(sizing.mean_task_seconds, sizing.cv_task_seconds);
    t.demand = sizing.demand;
    if (level > 0) {
      const auto first_of_level = static_cast<std::int64_t>(
          (level * n + levels - 1) / levels);
      for (std::int64_t d = rng.uniform_int(1, 3); d > 0; --d) {
        t.deps.push_back(
            static_cast<std::size_t>(rng.uniform_int(0, first_of_level - 1)));
      }
      std::sort(t.deps.begin(), t.deps.end());
      t.deps.erase(std::unique(t.deps.begin(), t.deps.end()), t.deps.end());
    }
    job.tasks.push_back(std::move(t));
  }
  return job;
}

/// Dependency level per task (level = longest chain of deps below it).
inline std::vector<std::size_t> level_of_tasks(const Job& job) {
  std::vector<std::size_t> level(job.tasks.size(), 0);
  for (std::size_t i = 0; i < job.tasks.size(); ++i) {
    for (std::size_t d : job.tasks[i].deps) {
      level[i] = std::max(level[i], level[d] + 1);
    }
  }
  return level;
}

/// Width of the widest dependency level.
inline std::size_t max_parallelism(const Job& job) {
  const std::vector<std::size_t> levels = level_of_tasks(job);
  std::vector<std::size_t> width(job.tasks.size(), 0);
  for (std::size_t l : levels) ++width[l];
  return job.tasks.empty() ? 0 : *std::max_element(width.begin(), width.end());
}

}  // namespace mcs::workload

namespace mcs::graph {

/// rows x cols 4-neighbour grid (undirected).
inline Graph grid2d(VertexId rows, VertexId cols) {
  std::vector<Edge> edges;
  const auto at = [cols](VertexId r, VertexId c) { return r * cols + c; };
  for (VertexId r = 0; r < rows; ++r) {
    for (VertexId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back(Edge{at(r, c), at(r, c + 1), 1.0});
      if (r + 1 < rows) edges.push_back(Edge{at(r, c), at(r + 1, c), 1.0});
    }
  }
  return Graph(rows * cols, edges, /*undirected=*/true);
}

/// Stored arcs per vertex.
inline double mean_degree(const Graph& g) {
  return g.vertex_count() == 0 ? 0.0
                               : static_cast<double>(g.arc_count()) /
                                     static_cast<double>(g.vertex_count());
}

inline std::size_t max_degree(const Graph& g) {
  std::size_t best = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    best = std::max(best, g.out_degree(v));
  }
  return best;
}

}  // namespace mcs::graph
