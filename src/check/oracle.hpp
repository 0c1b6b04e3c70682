// Invariant oracle for deterministic simulation fuzzing (mcs_check).
//
// The paper's trust agenda (C6: guaranteeable NFRs, C10: ecosystems we can
// rely on) needs the engine's fast paths to stay *correct* under
// adversarial schedules, not just fast. This oracle is the judge: it hooks
// the execution engine's transition observer (sched::EngineObserver) and
// the event kernel's hook (sim::SimHook), and after every state transition
// re-verifies the full invariant set below, throwing OracleViolation with
// a precise description on the first breach. The fuzzer (check/fuzz.hpp)
// runs thousands of seeded scenarios under this oracle; unit tests attach
// it to hand-built scenarios.
//
// Atomicity granularity: a single simulator event may apply several nested
// transitions (a machine failure kills many tasks and may abandon jobs
// midway), so the full invariant sweep runs at each event *end* — the
// quiescent point — while per-transition hooks do targeted checks (new
// placements, drain bookkeeping) that are valid even mid-event.
//
// Invariants checked at every event boundary (and on explicit verify()):
//  I1 CONSERVATION   jobs submitted == jobs live + jobs completed (the
//                    completed list includes abandoned jobs), and per live
//                    job: remaining == tasks - #done.
//  I2 TASK PARTITION every task of a live job is in at most one runtime
//                    state — ready or running, never both, never twice —
//                    and only when all its dependencies are done.
//                    READY INDEX: sequence numbers strictly increase along
//                    the ready queue's enqueue order; its ordered index (once
//                    built) holds every queued handle exactly once, each
//                    adjacent pair strictly increasing under (order,
//                    sequence) — exactly a stable sort of the enqueue order;
//                    and its floor equals a fresh componentwise minimum.
//  I3 DEPENDENCIES   a not-done task's missing_deps count equals a fresh
//                    recount of its not-done dependencies (CSR unlock
//                    bookkeeping never drifts).
//  I4 CAPACITY       every machine's used vector is componentwise within
//                    [0, capacity] across all core::kResourceDims
//                    dimensions (so planned free capacity = available() is
//                    non-negative); in exclusive mode, used equals the
//                    per-dimension sum of resources held by this engine's
//                    running tasks, the machine's live-allocation count
//                    matches the number of running tasks placed on it, and
//                    an idle machine's used vector is *exactly* zero in
//                    every dimension (no FP residue).
//                    LIVE VIEW: unless the engine will rebuild its view at
//                    the next round (a drain-set change or a machine change
//                    it did not make is pending), its planned capacity's
//                    machine list — the one list policies plan on — is
//                    exactly the usable, non-draining machines in id order,
//                    each listed machine's planned row equals its live
//                    available(), capacity() and speed_factor() exactly
//                    (==, no epsilon: a row that drifted by one ulp can flip
//                    a fit at an exact boundary), and no unlisted machine
//                    has a planned row.
//                    RUNNING INDEX: every live running task is listed
//                    exactly once, on its own machine's list, and the
//                    per-machine lists hold nothing else.
//  I5 PLACEMENT      every running task sits on a usable machine, a
//                    kTaskStarted transition never targets a draining or
//                    failed machine, every running task of a zone-
//                    constrained job sits inside the job's zone set, and no
//                    machine runs more tasks of one job than the job's
//                    anti-affinity spread limit allows.
//  I6 DRAIN SHADOW   the engine's drain bitset matches the oracle's shadow
//                    copy, which only drain()/undrain() transitions may
//                    move — a machine crash or repair must never flip it.
//  I7 MONOTONICITY   event execution times never decrease (the kernel's
//                    clock cannot run backwards), per the sim hook.
//
// Hook cost model: both hooks are compiled into every build and cost one
// predicted-null branch per event/transition when no oracle is installed
// (measured in BENCH_micro.json pr4_before/pr4_after: BM_EngineThroughput
// unchanged within noise). With an oracle attached, each transition pays a
// full O(jobs + tasks + ready + running + machines) sweep — test-harness
// territory, never production.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "infra/topology.hpp"
#include "sched/engine.hpp"
#include "sim/simulator.hpp"

namespace mcs::check {

/// Thrown on the first invariant breach; the message carries the invariant
/// id, the transition that exposed it, the virtual time, and the details.
class OracleViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class InvariantChecker final : public sched::EngineObserver,
                               public sim::SimHook {
 public:
  struct Options {
    /// When true, the engine under check is the only component allocating
    /// on the datacenter, so I4 additionally requires used == sum of held
    /// resources of the engine's running tasks per usable machine.
    bool exclusive_allocation = false;
  };

  InvariantChecker(sim::Simulator& sim, const infra::Datacenter& dc)
      : InvariantChecker(sim, dc, Options{}) {}
  InvariantChecker(sim::Simulator& sim, const infra::Datacenter& dc,
                   Options options);
  ~InvariantChecker() override;

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Installs this oracle as the engine's observer and the simulator's
  /// hook, and seeds the drain shadow from the engine's current state.
  void attach(sched::ExecutionEngine& engine);
  /// Clears both hooks (also done by the destructor).
  void detach();

  /// Runs the full invariant sweep immediately (e.g. as an end-of-run
  /// check); throws OracleViolation on the first breach.
  void verify(const sched::ExecutionEngine& engine, const char* where);

  /// Describes why a quiesced run is not done: stuck ready tasks (job,
  /// index, demand) and the state of every machine. Used by the fuzzer's
  /// end-of-run quiescence oracle to make violations actionable.
  [[nodiscard]] std::string quiescence_report(
      const sched::ExecutionEngine& engine) const;

  /// Invariant sweeps performed so far.
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  /// Engine transitions observed so far.
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

  // EngineObserver: targeted mid-event checks + drain shadow bookkeeping.
  void on_transition(const sched::ExecutionEngine& engine,
                     sched::EngineTransition t,
                     infra::MachineId machine) override;
  // SimHook: event-time monotonicity (I7) before the callback ...
  void on_event(sim::SimTime at, std::uint64_t executed) override;
  // ... and the full invariant sweep at the post-event quiescent point.
  void on_event_end(sim::SimTime at, std::uint64_t executed) override;

 private:
  [[noreturn]] void fail(const char* invariant, const char* where,
                         const std::string& detail) const;
  /// I2 ready-index: the queue's enqueue order, ordered index and floor.
  void verify_ready_index(const sched::ReadyQueue& ready, const char* where);

  sim::Simulator& sim_;
  const infra::Datacenter& dc_;
  Options options_;
  sched::ExecutionEngine* engine_ = nullptr;
  sim::SimTime last_event_at_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t transitions_ = 0;
  /// Oracle-side copy of the drain set, moved only by kDrained/kUndrained.
  std::vector<std::uint8_t> shadow_drain_;

  // Scratch reused across sweeps (task-state partition bookkeeping).
  std::vector<std::uint32_t> task_offsets_;
  std::vector<std::uint8_t> task_marks_;
  /// Per-machine held resources, one flat array per resource dimension
  /// (indexed machine * kResourceDims + dim) so I4 accounting covers every
  /// dimension of the vector, not just the three historically named ones.
  std::vector<double> held_dims_;
  std::vector<std::uint32_t> held_count_;
  /// Per running key: seen on a machine list in this sweep.
  std::vector<std::uint8_t> listed_marks_;
  /// Per ready handle: seen in the queue's index in this sweep.
  std::vector<std::uint8_t> indexed_marks_;
};

}  // namespace mcs::check
