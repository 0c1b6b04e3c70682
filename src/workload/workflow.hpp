// Workflow (DAG) generators following the shapes of the scientific
// workloads the paper names in §6.2 (citing Bharathi et al. [114]):
// Montage (computational astrophysics mosaics), Epigenomics
// (bioinformatics pipelines), and LIGO Inspiral (gravitational-wave
// analysis).
//
// Shapes are structural approximations of the published characterizations:
//  - Montage: wide fan-out -> pairwise overlap stage -> deep reduction ->
//    wide back-projection (diamond with heavy middle);
//  - Epigenomics: several independent parallel pipelines that merge;
//  - LIGO: repeated fan-out/fan-in template-bank stages.
#pragma once

#include "sim/random.hpp"
#include "workload/task.hpp"

namespace mcs::workload {

struct WorkflowSizing {
  double mean_task_seconds = 30.0;
  double cv_task_seconds = 0.8;  ///< lognormal spread of task sizes
  infra::ResourceVector demand{1.0, 1.0, 0.0};
};

/// Montage-like: fan-out of `width` projection tasks, ~2*width overlap
/// tasks with pairwise deps, a fan-in concat, and a final fan-out of width
/// background-correction tasks.
[[nodiscard]] Job make_montage_like(JobId id, std::size_t width,
                                    const WorkflowSizing& sizing,
                                    sim::Rng& rng);

/// Epigenomics-like: `lanes` independent 4-stage pipelines merging into a
/// 2-stage tail.
[[nodiscard]] Job make_epigenomics_like(JobId id, std::size_t lanes,
                                        const WorkflowSizing& sizing,
                                        sim::Rng& rng);

/// LIGO-like: `banks` repetitions of (fan-out width, fan-in) template-bank
/// analysis blocks chained sequentially.
[[nodiscard]] Job make_ligo_like(JobId id, std::size_t banks,
                                 std::size_t width,
                                 const WorkflowSizing& sizing, sim::Rng& rng);

}  // namespace mcs::workload
