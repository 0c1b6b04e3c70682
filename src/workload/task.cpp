#include "workload/task.hpp"

#include <algorithm>

namespace mcs::workload {

bool Job::is_workflow() const {
  return std::any_of(tasks.begin(), tasks.end(),
                     [](const Task& t) { return !t.deps.empty(); });
}

double Job::total_work_seconds() const {
  double total = 0.0;
  for (const Task& t : tasks) total += t.work_seconds;
  return total;
}

double Job::critical_path_seconds() const {
  // tasks are topologically ordered by construction (deps point backwards),
  // so one forward pass suffices.
  std::vector<double> finish(tasks.size(), 0.0);
  double best = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    double start = 0.0;
    for (std::size_t d : tasks[i].deps) start = std::max(start, finish[d]);
    finish[i] = start + tasks[i].work_seconds;
    best = std::max(best, finish[i]);
  }
  return best;
}

bool Job::valid() const {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (std::size_t d : tasks[i].deps) {
      if (d >= i) return false;  // must point strictly backwards
    }
    // Negated so NaN fails too: the SJF/LJF queue index needs work to be
    // a strict weak order.
    if (!(tasks[i].work_seconds >= 0.0) || !tasks[i].demand.nonnegative()) {
      return false;
    }
  }
  return true;
}

Job make_bag_of_tasks(JobId id, std::size_t n, double work_seconds_each,
                      infra::ResourceVector demand) {
  Job job;
  job.id = id;
  job.tasks.resize(n);
  for (Task& t : job.tasks) {
    t.work_seconds = work_seconds_each;
    t.demand = demand;
  }
  return job;
}

}  // namespace mcs::workload
