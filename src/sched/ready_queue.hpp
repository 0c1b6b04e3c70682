// The engine's ready tasks, in one home (DESIGN.md §9): each task is stored
// once, under a stable handle, and stamped with an enqueue sequence number.
// The queue keeps three views of its tasks live across scheduling rounds:
//
//  - the tasks in enqueue order (positions 0..Q-1, ascending sequence);
//  - one index of handles sorted by (queue order, sequence), for the queue
//    order the last request named. An ordered policy walks it instead of
//    stable-sorting the queue every round; a stable sort of the enqueue
//    order gives exactly this order, so no decision can move;
//  - the componentwise minimum demand, its "floor": a core::CountedExtreme,
//    the same bound PlannedCapacity keeps of its free capacity (DESIGN.md
//    §12), rescanned only when the last task at it leaves.
//
// Policies read the queue through SchedulerView::ready. The index lives
// here rather than in a policy because policies are wrapped, swapped
// mid-run and called on hand-built views: the queue builds it on the first
// request for an order and keeps it until another order is requested.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/resources.hpp"
#include "core/slot_pool.hpp"
#include "infra/machine.hpp"
#include "sim/simulator.hpp"
#include "workload/task.hpp"

namespace mcs::sched {

/// A task eligible to run now (dependencies satisfied).
struct ReadyTask {
  workload::JobId job = 0;
  std::size_t task_index = 0;
  double work_seconds = 1.0;
  infra::ResourceVector demand;
  sim::SimTime job_submit = 0;
  sim::SimTime became_ready = 0;
  /// Interned submitter id (dense index into SchedulerView::user_usage);
  /// the engine resolves the user string once at submit, never per round.
  std::uint32_t user_id = 0;
  /// Engine-internal job slot (stable for the job's lifetime; policies
  /// should treat it as opaque).
  std::uint32_t job_slot = 0;
  /// HEFT upward rank (critical-path distance to the job's exit, in
  /// reference seconds); 0 for bag tasks.
  double rank = 0.0;
  /// Absolute deadline derived from the job's latency SLO (C3: NFRs reach
  /// the scheduler); kTimeInfinity when the job has none.
  sim::SimTime deadline = sim::kTimeInfinity;
  /// Zone label filter: bitset over machine ids this task may run on
  /// (borrowed from the engine's LabelFilterCache; valid for the round).
  /// Null = unconstrained.
  const std::uint64_t* zone_mask = nullptr;
  std::size_t zone_words = 0;
  /// Anti-affinity: max concurrently-running tasks of this job per machine;
  /// 0 = unlimited.
  std::uint32_t spread_limit = 0;
};

/// A queue order: a strict weak order on ready tasks whose verdict on two
/// tasks never changes while both are queued. Ties keep enqueue order.
using QueueOrder = bool (*)(const ReadyTask&, const ReadyTask&);

class ReadyQueue {
 public:
  /// Names a queued task until it leaves; erased handles are recycled.
  using Handle = std::uint32_t;

  /// Stores `task` under a fresh or recycled handle at the back of the
  /// enqueue order, and at the upper bound of its key in the index: it
  /// carries the largest sequence number, so it goes after every equal key.
  /// O(1) when it sorts last (FCFS arrivals), else a binary search and a
  /// move of the tail. Allocation-free once the queue has grown to the
  /// run's peak.
  // mcs-lint: hot
  Handle push(const ReadyTask& task) {
    const Handle h = slots_.acquire();
    Entry& e = slots_[h];
    e.task = task;
    e.seq = next_seq_++;
    if (fifo_.size() == fifo_.capacity()) {
      // Amortized doubling of both orders, so the index insert below never
      // reallocates either: a queue grows to its peak once, not per round.
      const std::size_t capacity = fifo_.empty() ? 16 : fifo_.size() * 2;
      fifo_.reserve(capacity);
      index_.reserve(capacity);
    }
    fifo_.push_back(h);
    if (order_ != nullptr) {
      const bool last =
          index_.empty() || !order_(task, slots_[index_.back()].task);
      index_.insert(last ? index_.end()
                         : std::upper_bound(index_.begin(), index_.end(), h,
                                            [this](Handle a, Handle b) {
                                              return order_(slots_[a].task,
                                                            slots_[b].task);
                                            }),
                    h);
    }
    floor_.enter(task.demand);
    return h;
  }

  /// Removes the task: O(1) when it is the newest (the engine starts tasks
  /// newest first), else a binary search and a move of the tail in each of
  /// the two orders.
  // mcs-lint: hot
  void erase(Handle h) {
    floor_.leave(slots_[h].task.demand);
    fifo_.erase(fifo_.back() == h ? fifo_.end() - 1 : fifo_position(h));
    if (order_ != nullptr) {
      index_.erase(index_.back() == h ? index_.end() - 1 : index_position(h));
    }
    slots_.release(h);
  }

  /// Removes every task of the job in `job_slot`: one pass over each order.
  void erase_job(std::uint32_t job_slot) {
    const auto of_job = [this, job_slot](Handle h) {
      return slots_[h].task.job_slot == job_slot;
    };
    if (order_ != nullptr) {
      index_.erase(std::remove_if(index_.begin(), index_.end(), of_job),
                   index_.end());
    }
    auto kept = fifo_.begin();
    for (const Handle h : fifo_) {
      if (!of_job(h)) {
        *kept++ = h;
        continue;
      }
      floor_.leave(slots_[h].task.demand);
      slots_.release(h);
    }
    fifo_.erase(kept, fifo_.end());
  }

  [[nodiscard]] const ReadyTask& operator[](Handle h) const {
    return slots_[h].task;
  }
  /// The task's enqueue sequence number: strictly increasing in enqueue
  /// order, never reused.
  [[nodiscard]] std::uint64_t seq(Handle h) const { return slots_[h].seq; }
  /// True when `h` names a queued task.
  [[nodiscard]] bool contains(Handle h) const {
    return h < slots_.size() && slots_.live(h);
  }
  [[nodiscard]] std::size_t size() const { return fifo_.size(); }
  [[nodiscard]] bool empty() const { return fifo_.empty(); }
  /// Handles ever handed out (queued + recycled); a dense-table bound.
  [[nodiscard]] std::uint32_t handle_bound() const { return slots_.size(); }

  /// The queued handles in enqueue order: position p is the p-th oldest.
  [[nodiscard]] const std::vector<Handle>& handles() const { return fifo_; }

  /// The queued handles sorted by (`order`, sequence). Built when `order`
  /// differs from the last request (O(Q log Q)); otherwise the live index.
  [[nodiscard]] const std::vector<Handle>& ordered(QueueOrder order) const {
    if (order != order_) build_index(order);
    return index_;
  }
  /// The order the index is kept in; null before the first request.
  [[nodiscard]] QueueOrder index_order() const { return order_; }

  /// Componentwise minimum demand over the queue (+inf when empty): exact
  /// at every read. Every queued demand dominates it, so where it fits no
  /// machine, no queued task fits any.
  // mcs-lint: hot
  [[nodiscard]] const infra::ResourceVector& floor() const {
    return floor_.read([this](const auto& visit) {
      for (const Handle h : fifo_) visit(slots_[h].task.demand);
    });
  }

 private:
  struct Entry {
    ReadyTask task;
    std::uint64_t seq = 0;
  };

  /// Strict order of the index: (order_, sequence).
  [[nodiscard]] bool before(Handle a, Handle b) const {
    const ReadyTask& x = slots_[a].task;
    const ReadyTask& y = slots_[b].task;
    if (order_(x, y)) return true;
    return !order_(y, x) && slots_[a].seq < slots_[b].seq;
  }
  [[nodiscard]] std::vector<Handle>::iterator fifo_position(Handle h) {
    return std::lower_bound(fifo_.begin(), fifo_.end(), slots_[h].seq,
                            [this](Handle a, std::uint64_t s) {
                              return slots_[a].seq < s;
                            });
  }
  [[nodiscard]] std::vector<Handle>::iterator index_position(Handle h) {
    return std::lower_bound(
        index_.begin(), index_.end(), h,
        [this](Handle a, Handle b) { return before(a, b); });
  }

  // mcs-lint: allow(H3) — runs only when a policy asks for an order other
  // than the index's: once per engine, and once per portfolio switch.
  void build_index(QueueOrder order) const {
    order_ = order;
    index_.assign(fifo_.begin(), fifo_.end());
    std::stable_sort(index_.begin(), index_.end(), [this](Handle a, Handle b) {
      return order_(slots_[a].task, slots_[b].task);
    });
  }

  core::SlotPool<Entry> slots_;
  std::uint64_t next_seq_ = 0;
  std::vector<Handle> fifo_;  ///< enqueue order (ascending sequence)
  /// The index and its order, built by const ordered(): a cache of a pure
  /// function of the queue, kept live by push and erase.
  mutable std::vector<Handle> index_;
  mutable QueueOrder order_ = nullptr;
  /// The floor, kept by push and erase and rescanned by const floor().
  mutable core::CountedExtreme<core::Extreme::kMin> floor_;
};

}  // namespace mcs::sched
