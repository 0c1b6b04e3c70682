// Units of work: tasks, jobs (bags-of-tasks), and their bookkeeping.
//
// The paper's workload models (§3.5: "core workload models such as workflows
// and dataflows"; C7: grid workloads fragmenting into smaller tasks [39])
// center on two shapes: the bag-of-tasks (independent tasks) and the
// workflow (a DAG, src/workload/workflow.hpp). Both are Jobs here; a task's
// `deps` lists the indices of in-job tasks it must wait for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/nfr.hpp"
#include "infra/machine.hpp"
#include "sim/simulator.hpp"

namespace mcs::workload {

using JobId = std::uint64_t;

struct Task {
  /// Work expressed as seconds on a reference machine (speed factor 1.0).
  double work_seconds = 1.0;
  /// Resources held while running.
  infra::ResourceVector demand{1.0, 1.0, 0.0};
  /// Indices (within the owning job) of tasks that must finish first.
  /// Dependencies always point to lower indices, so DAGs are acyclic by
  /// construction.
  std::vector<std::size_t> deps;
};

/// Per-job placement constraints (C4): a zone label filter plus a simple
/// anti-affinity spread limit. Defaults are unconstrained — legacy jobs
/// schedule exactly as before.
struct Placement {
  /// Comma-separated allowed zone names (Datacenter zones); empty = any
  /// machine. Resolved once at submit through the engine's
  /// LabelFilterCache.
  std::string zones;
  /// Max concurrently-running tasks of this job per machine; 0 = unlimited.
  std::uint32_t spread_limit = 0;
};

struct Job {
  JobId id = 0;
  std::string user;
  sim::SimTime submit_time = 0;
  std::vector<Task> tasks;
  core::Sla sla;
  Placement placement;

  /// A job is a workflow when any task has dependencies.
  [[nodiscard]] bool is_workflow() const;

  /// Sum of all task work (reference-machine seconds).
  [[nodiscard]] double total_work_seconds() const;

  /// Length of the longest dependency chain in reference seconds — the
  /// lower bound on makespan with infinite resources; used as the slowdown
  /// denominator for workflows.
  [[nodiscard]] double critical_path_seconds() const;

  /// Validates the dependency structure (deps point backwards & in range)
  /// and each task's work (not negative, not NaN) and demand (not
  /// negative).
  [[nodiscard]] bool valid() const;
};

/// Builds a bag of `n` independent tasks with the given per-task work and
/// demand.
[[nodiscard]] Job make_bag_of_tasks(JobId id, std::size_t n,
                                    double work_seconds_each,
                                    infra::ResourceVector demand = {1.0, 1.0,
                                                                    0.0});

}  // namespace mcs::workload
