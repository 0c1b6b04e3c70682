// Portfolio scheduling (C7/C9; Ghit et al. [22], van Beek et al. [112]).
//
// No single allocation policy dominates across workload regimes; a
// portfolio scheduler keeps a set of candidate policies, periodically
// scores each against the current queue state with a fast surrogate
// simulation (greedy list-scheduling makespan estimate), and switches the
// live engine to the winner. Each candidate ranks the queue by the queue
// order its policy walks (sched/allocation.hpp), so an order has one
// definition. exp_scheduling reproduces the published shape: the
// portfolio tracks whichever fixed policy is best per regime.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sched/allocation.hpp"
#include "sched/engine.hpp"

namespace mcs::sched {

/// Estimates the makespan (seconds from now) of running the current ready
/// queue to completion in queue order `order`, using greedy list scheduling
/// onto the view's machines (`view.planned->machines()`). Pure function: no
/// events, no state.
[[nodiscard]] double estimate_queue_makespan(const SchedulerView& view,
                                             QueueOrder order);

/// A candidate policy and the queue order its policy walks.
struct PortfolioCandidate {
  std::string policy_name;  ///< passed to make_policy() when chosen
  QueueOrder order = nullptr;
};

/// "fcfs", "sjf" and "ljf", each with its policy's own queue order.
[[nodiscard]] std::vector<PortfolioCandidate> default_portfolio();

/// Periodically re-selects the engine's allocation policy.
class PortfolioScheduler {
 public:
  PortfolioScheduler(sim::Simulator& sim, infra::Datacenter& dc,
                     ExecutionEngine& engine,
                     std::vector<PortfolioCandidate> candidates,
                     sim::SimTime interval);

  /// Starts the periodic selection loop; stops automatically once the
  /// engine reports all_done().
  void start();

  [[nodiscard]] std::size_t switches() const { return switches_; }
  [[nodiscard]] const std::string& current() const { return current_; }
  /// How often each candidate was selected (diagnostics).
  // mcs-lint: allow(R1) — PortfolioTest.SwitchesPoliciesAndFinishesWorkload
  // (tests/sched_test.cpp) checks the per-policy tallies through it.
  [[nodiscard]] const std::vector<std::size_t>& selections() const {
    return selections_;
  }

 private:
  /// One selection round: scores every candidate, switches to the winner.
  void tick();

  sim::Simulator& sim_;
  infra::Datacenter& dc_;
  ExecutionEngine& engine_;
  std::vector<PortfolioCandidate> candidates_;
  sim::SimTime interval_;
  std::string current_;
  std::size_t switches_ = 0;
  std::vector<std::size_t> selections_;
};

}  // namespace mcs::sched
