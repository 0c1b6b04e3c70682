// Allocation policies: which ready task goes to which machine (C7).
//
// The paper frames datacenter scheduling as a *dual problem*: provisioning
// (src/sched/provisioning.hpp) acquires resources on the user's behalf,
// allocation (this file) places tasks on provisioned resources. The policy
// set spans the classic families the paper's C7 cites "hundreds of
// approaches" from: queue-ordering (FCFS/SJF), backfilling (EASY),
// fairness (fair-share), heterogeneity-aware list scheduling (HEFT), and
// BoT heuristics (min-min / max-min).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "infra/machine.hpp"
#include "sched/ready_queue.hpp"
#include "sim/simulator.hpp"
#include "workload/task.hpp"

namespace mcs::sched {

class PlannedCapacity;  // sched/scoring.hpp
class RunningSet;       // sched/running_set.hpp

/// Node-scoring policy for the placement pass (lowest score wins; ties
/// break to the lowest machine id). The YT/YP EPodNodeScoreType lineage —
/// see sched/scoring.hpp for the scoring machinery and DESIGN.md §13 for
/// the math.
enum class NodeScorePolicy : std::uint8_t {
  kNone = 0,           ///< legacy Fit heuristic only
  kRandomHash,         ///< salted hash of (job, machine): deterministic spread
  kFreeShareVariance,  ///< balance post-placement free cpu/mem shares
  kSquaredMinDelta,    ///< pack: minimize squared min free cpu/mem share
};

/// Placement configuration handed to policies through the SchedulerView
/// (and to the engine through EngineConfig).
struct PlacementContext {
  NodeScorePolicy score = NodeScorePolicy::kNone;
  /// Hash salt for kRandomHash (varies the spread pattern per experiment).
  std::uint64_t salt = 0;
};

/// What an allocation policy sees each scheduling round: the engine's live
/// state, read in place. The engine keeps its planned capacity across
/// rounds instead of rebuilding it (DESIGN.md §12), and a policy takes from
/// `*planned` while it plans and restore()s it before decide() returns, so
/// the engine finds the mirror as it lent it.
struct SchedulerView {
  sim::SimTime now = 0;
  /// The engine's ready queue; its ordered index and floor persist across
  /// rounds (sched/ready_queue.hpp).
  const ReadyQueue* ready = nullptr;
  /// The machines a policy may place on — `planned->machines()`, the
  /// usable, non-draining ones in id order — and their planned free
  /// capacity, one row per machine id, equal to each machine's live
  /// available(). Required by decide(), which throws std::invalid_argument
  /// without it; a hand-built view points it at a PlannedCapacity built
  /// from the machines it offers.
  PlannedCapacity* planned = nullptr;
  /// The engine's running tasks; the engine starts nothing while a policy
  /// plans, so anti-affinity counts read from it are the round's.
  const RunningSet* running = nullptr;
  /// Consumed core-seconds per user, indexed by ReadyTask::user_id
  /// (fair-share input).
  const std::vector<double>* user_usage = nullptr;
  /// Scoring configuration; null or score == kNone means the legacy Fit
  /// heuristic (bit-identical to the pre-scoring engine).
  const PlacementContext* placement = nullptr;
};

/// One placement decision: ready task (by its queue handle) -> machine.
struct Assignment {
  ReadyQueue::Handle task = 0;
  infra::MachineId machine = 0;
};

/// Strategy interface. `decide` proposes a batch of assignments; the engine
/// applies the feasible prefix of each one (re-validating against live
/// state) and calls again while progress is made, so policies may be
/// stateless and straightforward.
class AllocationPolicy {
 public:
  virtual ~AllocationPolicy() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::vector<Assignment> decide(const SchedulerView& view) = 0;
};

/// Machine choice among the machines with room that admit a task
/// (pick_machine in sched/scoring.hpp). A NodeScorePolicy replaces the two
/// capacity Fits, never kEarliestFinish.
enum class Fit {
  kFirst,           ///< first machine with room
  kBest,            ///< least leftover cores (packs tightly)
  kEarliestFinish,  ///< least run time work / speed (HEFT, min-min, max-min)
};

/// Queue orders: the strict weak orders the ordered policies walk the ready
/// queue's index in (ties keep enqueue order). Each is defined once and
/// shared by its policy's factory and, for the first three, the portfolio's
/// surrogate (sched/portfolio.hpp).
/// FCFS: job submit time, then job id, then task index.
[[nodiscard]] bool order_fcfs(const ReadyTask& a, const ReadyTask& b);
/// SJF: less work first.
[[nodiscard]] bool order_sjf(const ReadyTask& a, const ReadyTask& b);
/// LJF: more work first.
[[nodiscard]] bool order_ljf(const ReadyTask& a, const ReadyTask& b);
/// EDF: earliest deadline first, then FCFS.
[[nodiscard]] bool order_edf(const ReadyTask& a, const ReadyTask& b);
/// HEFT: highest upward rank first.
[[nodiscard]] bool order_rank(const ReadyTask& a, const ReadyTask& b);

/// FCFS: tasks in job-arrival order (then task index), on the `fit`
/// machine ("fcfs-bestfit" is Fit::kBest).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_fcfs(Fit fit = Fit::kFirst);

/// SJF: shortest task first (work_seconds ascending).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_sjf();

/// LJF: longest task first.
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_ljf();

/// Fair-share: tasks of the least-served user first (by consumed
/// core-seconds), FCFS within a user.
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_fair_share();

/// EDF: earliest job deadline first (jobs without a latency SLO sort
/// last); the deadline-aware policy of the paper's fine-grained-NFR vision
/// (C3 — "expressing detailed NFRs for each unit of work").
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_edf();

/// EASY backfilling: FCFS head gets a reservation at the earliest time
/// enough capacity frees up; later tasks may jump the queue iff their
/// estimated completion does not push past the reservation (or they avoid
/// the reserved machine).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_easy_backfilling();

/// Conservative backfilling: *every* queued task that cannot start gets a
/// reservation (not just the head); a later task backfills only when its
/// estimated completion precedes every reservation on its machine — no
/// queued task is ever delayed. Trades throughput for predictability
/// (the classic EASY/conservative pair of the backfilling literature).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_conservative_backfilling();

/// HEFT-style list scheduling: highest upward-rank first, placed on the
/// machine with the earliest estimated finish time (speed-aware — the
/// heterogeneity-honouring policy). The skeleton at depth 0 with
/// Fit::kEarliestFinish.
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_heft();

/// Min-min: repeatedly assign the task with the smallest minimum estimated
/// completion time (favours short tasks; classic BoT heuristic).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_min_min();

/// Max-min: like min-min but schedules the task with the *largest* minimum
/// completion time first (gets big rocks in early).
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_max_min();

/// Random placement (the baseline of last resort), from a fixed seed.
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_random();

/// All policy factory names (for sweeps); `make_policy` builds by name.
[[nodiscard]] std::vector<std::string> all_policy_names();
[[nodiscard]] std::unique_ptr<AllocationPolicy> make_policy(
    const std::string& name);

}  // namespace mcs::sched
