// The engine's running tasks, in one home (DESIGN.md §9): a slot table
// whose keys are handed out and recycled exactly as core::SlotPool does,
// with every task also linked on its machine's list. Readers use the set in
// place: a key-order walk where the order shows in results (kills, abandon
// releases, sums), one machine's list for "what runs on machine m?"
// (anti-affinity counts, idle checks, release profiles, the portfolio
// surrogate). Policies see it read-only as SchedulerView::running.
#pragma once

#include <cstdint>
#include <vector>

#include "core/slot_pool.hpp"
#include "infra/machine.hpp"
#include "sim/simulator.hpp"

namespace mcs::sched {

/// A task executing on a machine.
struct RunningTask {
  std::uint32_t job_slot = 0;
  std::uint32_t task_index = 0;
  infra::MachineId machine = 0;
  sim::SimTime start = 0;
  sim::SimTime expected_end = 0;
  infra::ResourceVector held;  ///< resources actually held on the machine
  double work_seconds = 0.0;   ///< for usage accounting
  sim::EventHandle completion;
};

class RunningSet {
 public:
  /// Stores `task` under a fresh or recycled key and links it at the head
  /// of its machine's list. Allocation-free once the slots and list heads
  /// have grown to the run's peak.
  // mcs-lint: hot
  std::uint32_t add(const RunningTask& task) {
    const std::uint32_t key = slots_.acquire();
    Node& n = slots_[key];
    n.task = task;
    if (task.machine >= head_.size()) grow_heads(task.machine);
    n.prev = kNone;
    n.next = head_[task.machine];
    if (n.next != kNone) slots_[n.next].prev = key;
    head_[task.machine] = key;
    return key;
  }

  /// Unlinks `key` from its machine's list and releases it; outstanding
  /// (key, gen) handles go stale.
  // mcs-lint: hot
  void remove(std::uint32_t key) {
    const Node& n = slots_[key];
    (n.prev != kNone ? slots_[n.prev].next : head_[n.task.machine]) = n.next;
    if (n.next != kNone) slots_[n.next].prev = n.prev;
    slots_.release(key);
  }

  /// Tasks of the job in `job_slot` running on `machine`: one list walk.
  // mcs-lint: hot
  [[nodiscard]] std::uint32_t count(std::uint32_t job_slot,
                                    infra::MachineId machine) const {
    std::uint32_t n = 0;
    for (std::uint32_t k = first(machine); k != kNone; k = slots_[k].next) {
      if (slots_[k].task.job_slot == job_slot) ++n;
    }
    return n;
  }

  /// True when no task runs on `machine`.
  [[nodiscard]] bool idle(infra::MachineId machine) const {
    return first(machine) == kNone;
  }

  /// fn(key, task) over `machine`'s tasks, most recently added first.
  template <typename Fn>
  void for_each_on(infra::MachineId machine, Fn&& fn) const {
    for (std::uint32_t k = first(machine); k != kNone; k = slots_[k].next) {
      fn(k, slots_[k].task);
    }
  }
  /// fn(key, task) over every task in key order (deterministic).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    slots_.for_each([&](std::uint32_t k, const Node& n) { fn(k, n.task); });
  }

  [[nodiscard]] const RunningTask& operator[](std::uint32_t key) const {
    return slots_[key].task;
  }
  /// Mutable access for the completion handle; the machine must not change.
  [[nodiscard]] RunningTask& operator[](std::uint32_t key) {
    return slots_[key].task;
  }
  [[nodiscard]] bool live(std::uint32_t key) const { return slots_.live(key); }
  [[nodiscard]] std::uint32_t gen(std::uint32_t key) const {
    return slots_.gen(key);
  }
  /// Keys ever handed out (live + free); the key-order scan bound.
  [[nodiscard]] std::uint32_t size() const { return slots_.size(); }
  [[nodiscard]] std::size_t live_count() const { return slots_.live_count(); }
  [[nodiscard]] bool empty() const { return slots_.empty(); }
  /// One past the largest machine id that ever had a list.
  [[nodiscard]] std::size_t machine_bound() const { return head_.size(); }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    RunningTask task;
    std::uint32_t prev = kNone;  ///< neighbours on the machine's list
    std::uint32_t next = kNone;
  };

  [[nodiscard]] std::uint32_t first(infra::MachineId machine) const {
    return machine < head_.size() ? head_[machine] : kNone;
  }
  // mcs-lint: allow(H3) — grows only when a task lands on a machine id past
  // every earlier one: bounded by the fleet size, never once per round.
  void grow_heads(infra::MachineId machine) {
    head_.resize(machine + std::size_t{1}, kNone);
  }

  core::SlotPool<Node> slots_;
  std::vector<std::uint32_t> head_;  ///< machine id -> its newest task's key
};

}  // namespace mcs::sched
