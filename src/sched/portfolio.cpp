#include "sched/portfolio.hpp"

#include <algorithm>
#include <limits>
#include <optional>

namespace mcs::sched {

double estimate_queue_makespan(const SchedulerView& view, QueueOrder order) {
  if (view.ready->empty()) return 0.0;
  // Machine model: per machine, the time (seconds from now) when each of
  // its cores frees up, approximated at whole-machine granularity by a
  // "free-at" clock plus a free-core count. Greedy: tasks in policy order,
  // each placed on the machine with the earliest feasible start.
  struct M {
    double free_at = 0.0;  ///< earliest time the queued-ahead work drains
    double cores = 0.0;
    double speed = 1.0;
  };
  std::vector<M> machines;
  for (const infra::Machine* m : view.planned->machines()) {
    M mm;
    mm.cores = m->capacity().cpu();
    mm.speed = m->speed_factor();
    // Current running tasks delay availability: approximate with the
    // latest expected end among tasks on this machine.
    view.running->for_each_on(
        m->id(), [&](std::uint32_t, const RunningTask& r) {
          mm.free_at =
              std::max(mm.free_at, sim::to_seconds(r.expected_end - view.now));
        });
    machines.push_back(mm);
  }
  if (machines.empty()) return std::numeric_limits<double>::max();

  // The surrogate sorts a copy of its own: it runs once per tick, and asking
  // the queue for each candidate's order would rebuild the engine's index.
  std::vector<const ReadyTask*> tasks;
  tasks.reserve(view.ready->size());
  for (const ReadyQueue::Handle h : view.ready->handles()) {
    tasks.push_back(&(*view.ready)[h]);
  }
  std::stable_sort(tasks.begin(), tasks.end(),
                   [&](const ReadyTask* a, const ReadyTask* b) {
                     return order(*a, *b);
                   });

  double makespan = 0.0;
  for (const ReadyTask* t : tasks) {
    // Earliest-finish machine.
    std::size_t best = machines.size();
    double best_finish = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < machines.size(); ++i) {
      if (t->demand.cpu() > machines[i].cores) continue;
      const double finish =
          machines[i].free_at + t->work_seconds / machines[i].speed;
      if (finish < best_finish) {
        best_finish = finish;
        best = i;
      }
    }
    if (best == machines.size()) continue;  // task cannot run anywhere
    machines[best].free_at = best_finish;
    makespan = std::max(makespan, best_finish);
  }
  return makespan;
}

std::vector<PortfolioCandidate> default_portfolio() {
  return {{"fcfs", order_fcfs}, {"sjf", order_sjf}, {"ljf", order_ljf}};
}

PortfolioScheduler::PortfolioScheduler(sim::Simulator& sim,
                                       infra::Datacenter& dc,
                                       ExecutionEngine& engine,
                                       std::vector<PortfolioCandidate> candidates,
                                       sim::SimTime interval)
    : sim_(sim),
      dc_(dc),
      engine_(engine),
      candidates_(std::move(candidates)),
      interval_(interval),
      selections_(candidates_.size(), 0) {
  if (candidates_.empty()) {
    throw std::invalid_argument("PortfolioScheduler: no candidates");
  }
  current_ = engine_.policy_name();
}

void PortfolioScheduler::start() {
  sim_.schedule_recurring(interval_, [this]() -> std::optional<sim::SimTime> {
    if (engine_.all_done()) return std::nullopt;
    tick();
    return interval_;
  });
}

void PortfolioScheduler::tick() {
  // Score every candidate against the engine's live queue snapshot with the
  // greedy surrogate, and switch to the winner.
  const SchedulerView snapshot = engine_.snapshot_view();
  if (!snapshot.ready->empty() && !snapshot.planned->machines().empty()) {
    double best_makespan = std::numeric_limits<double>::max();
    std::size_t best = 0;
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      const double est = estimate_queue_makespan(snapshot, candidates_[i].order);
      if (est < best_makespan) {
        best_makespan = est;
        best = i;
      }
    }
    ++selections_[best];
    if (candidates_[best].policy_name != current_) {
      current_ = candidates_[best].policy_name;
      engine_.set_policy(make_policy(current_));
      ++switches_;
    }
  }
}

}  // namespace mcs::sched
