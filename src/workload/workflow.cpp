#include "workload/workflow.hpp"

#include <stdexcept>

namespace mcs::workload {

namespace {

Task sized_task(const WorkflowSizing& sizing, sim::Rng& rng) {
  Task t;
  t.work_seconds =
      rng.lognormal_mean_cv(sizing.mean_task_seconds, sizing.cv_task_seconds);
  t.demand = sizing.demand;
  return t;
}

}  // namespace

Job make_montage_like(JobId id, std::size_t width,
                      const WorkflowSizing& sizing, sim::Rng& rng) {
  if (width < 2) throw std::invalid_argument("make_montage_like: width < 2");
  Job job;
  job.id = id;
  // Stage 1: mProject fan-out.
  std::vector<std::size_t> project;
  for (std::size_t i = 0; i < width; ++i) {
    job.tasks.push_back(sized_task(sizing, rng));
    project.push_back(job.tasks.size() - 1);
  }
  // Stage 2: mDiff on neighbouring pairs (width-1 overlap tasks).
  std::vector<std::size_t> diffs;
  for (std::size_t i = 0; i + 1 < width; ++i) {
    Task t = sized_task(sizing, rng);
    t.work_seconds *= 0.5;  // overlaps are lighter than projections
    t.deps = {project[i], project[i + 1]};
    job.tasks.push_back(std::move(t));
    diffs.push_back(job.tasks.size() - 1);
  }
  // Stage 3: mConcatFit fan-in (single aggregation).
  Task fit = sized_task(sizing, rng);
  fit.deps = diffs;
  job.tasks.push_back(std::move(fit));
  const std::size_t fit_idx = job.tasks.size() - 1;
  // Stage 4: mBackground fan-out, one per projection.
  std::vector<std::size_t> backgrounds;
  for (std::size_t i = 0; i < width; ++i) {
    Task t = sized_task(sizing, rng);
    t.deps = {fit_idx, project[i]};
    job.tasks.push_back(std::move(t));
    backgrounds.push_back(job.tasks.size() - 1);
  }
  // Stage 5: mAdd final mosaic.
  Task add = sized_task(sizing, rng);
  add.work_seconds *= 2.0;  // the heavy reduction
  add.deps = backgrounds;
  job.tasks.push_back(std::move(add));
  return job;
}

Job make_epigenomics_like(JobId id, std::size_t lanes,
                          const WorkflowSizing& sizing, sim::Rng& rng) {
  if (lanes == 0) throw std::invalid_argument("make_epigenomics_like: lanes=0");
  Job job;
  job.id = id;
  std::vector<std::size_t> lane_tails;
  for (std::size_t l = 0; l < lanes; ++l) {
    std::size_t prev = 0;
    for (int stage = 0; stage < 4; ++stage) {  // filter, align, sort, count
      Task t = sized_task(sizing, rng);
      if (stage > 0) t.deps.push_back(prev);
      job.tasks.push_back(std::move(t));
      prev = job.tasks.size() - 1;
    }
    lane_tails.push_back(prev);
  }
  // Merge and global analysis tail.
  Task merge = sized_task(sizing, rng);
  merge.deps = lane_tails;
  job.tasks.push_back(std::move(merge));
  Task analyze = sized_task(sizing, rng);
  analyze.deps = {job.tasks.size() - 1};
  job.tasks.push_back(std::move(analyze));
  return job;
}

Job make_ligo_like(JobId id, std::size_t banks, std::size_t width,
                   const WorkflowSizing& sizing, sim::Rng& rng) {
  if (banks == 0 || width == 0) {
    throw std::invalid_argument("make_ligo_like: zero banks/width");
  }
  Job job;
  job.id = id;
  bool have_prev = false;
  std::size_t prev_sink = 0;
  for (std::size_t b = 0; b < banks; ++b) {
    // TmpltBank fan-out.
    std::vector<std::size_t> inspirals;
    for (std::size_t w = 0; w < width; ++w) {
      Task t = sized_task(sizing, rng);
      if (have_prev) t.deps.push_back(prev_sink);
      job.tasks.push_back(std::move(t));
      inspirals.push_back(job.tasks.size() - 1);
    }
    // Thinca fan-in.
    Task thinca = sized_task(sizing, rng);
    thinca.deps = inspirals;
    job.tasks.push_back(std::move(thinca));
    prev_sink = job.tasks.size() - 1;
    have_prev = true;
  }
  return job;
}

}  // namespace mcs::workload
