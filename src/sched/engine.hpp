// The execution engine: event-driven job/task lifecycle on a datacenter.
//
// This is the Back-end layer of the Fig. 3 reference architecture (task and
// resource management on behalf of the application). It owns the ready
// queue, invokes the pluggable AllocationPolicy, runs tasks on machines
// (runtime = work / machine speed), tracks dependencies, survives machine
// failures by re-queueing killed tasks, and supports draining for elastic
// provisioning. It records no demand/supply series: autoscalers sample
// demand_cores() themselves and read supply from
// ProvisionedPool::supply_series() (sched/provisioning.hpp).
//
// Storage discipline (DESIGN.md §9): jobs live in a core::SlotPool arena
// addressed by dense uint32 slot indices, ready tasks in a ReadyQueue (stable
// handles, plus an ordered index and a floor kept live across rounds) and
// running tasks in a RunningSet (the same keys, plus a list per machine),
// both of which policies read in place; draining is a machine-id bitset, and
// user names are interned to dense ids at submit.
// One PlannedCapacity, the usable machines and their free capacity, is the
// live view policies and the portfolio plan on, kept across rounds
// (DESIGN.md §12): each allocate or release the engine makes refreshes one
// row, and it is rebuilt from the fleet only after drain()/undrain() or a
// machine change the engine did not make (Datacenter::mutations()). With
// scratch buffers reused across scheduling rounds, the steady-state
// submit -> allocate -> run -> complete loop performs zero heap allocation
// once warmed up and costs what it places, not what the fleet holds
// (enforced by mcs_lint rule H2 via the `// mcs-lint: hot` annotations in
// engine.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/slot_pool.hpp"
#include "infra/topology.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sched/allocation.hpp"
#include "sched/ready_queue.hpp"
#include "sched/running_set.hpp"
#include "sched/scoring.hpp"
#include "sim/simulator.hpp"
#include "workload/task.hpp"

namespace mcs::check {
class InvariantChecker;  // friend: the oracle reads engine internals
}

namespace mcs::sched {

class ExecutionEngine;

/// State transitions reported to an installed EngineObserver. Every kind is
/// reported *after* the transition's state changes are fully applied, so an
/// observer sees only consistent states.
enum class EngineTransition : std::uint8_t {
  kJobSubmitted,   ///< submit() accepted a job (arrival event armed)
  kJobArrived,     ///< arrival processed: ranks stamped, roots made ready
  kJobCompleted,   ///< last task finished; stats recorded
  kJobAbandoned,   ///< retry budget exceeded or demand unsatisfiable
  kTaskStarted,    ///< a ready task was placed on a machine
  kTaskFinished,   ///< a running task completed; successors unlocked
  kTasksKilled,    ///< a machine failure killed its running tasks
  kDrained,        ///< drain(machine)
  kUndrained,      ///< undrain(machine)
};

[[nodiscard]] const char* to_string(EngineTransition t);

/// Observation hook for correctness harnesses (the invariant oracle in
/// src/check/oracle.hpp derives from this). The default null observer
/// costs one predicted branch per transition, cheap enough to stay
/// compiled into every build — release binaries included.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  /// `machine` identifies the machine involved (kTaskStarted, kTasksKilled,
  /// kDrained, kUndrained); kNoMachine otherwise.
  virtual void on_transition(const ExecutionEngine& engine,
                             EngineTransition t, infra::MachineId machine) = 0;
};

/// Sentinel for transitions with no associated machine.
inline constexpr infra::MachineId kNoMachine =
    static_cast<infra::MachineId>(-1);

/// Memory-scavenging option (Uta et al. [118], challenge C7): a task whose
/// memory does not fit locally may borrow remote memory for a runtime
/// penalty proportional to the borrowed fraction.
struct ScavengingConfig {
  bool enabled = false;
  /// At most this fraction of a task's memory may be remote.
  double max_borrow_fraction = 0.5;
  /// Runtime multiplier is 1 + penalty * borrowed_fraction.
  double penalty = 0.6;
};

/// How a task starts: what it holds on its machine, how much slower it runs
/// there, and whether part of its memory is remote (a start that counts in
/// tasks.scavenged, at a penalty of 0 too).
struct Admission {
  infra::ResourceVector held;
  double runtime_multiplier = 1.0;
  bool borrowed = false;
};

/// The one admission rule (DESIGN.md §9), pure: how a task with `demand`
/// would start within `free`. Whole if it fits; else, with scavenging on
/// and only memory short, on the local memory, borrowing the rest (at most
/// max_borrow_fraction of it) for a runtime multiplier of 1 + penalty *
/// that fraction; else not at all.
[[nodiscard]] std::optional<Admission> admit(
    const infra::ResourceVector& demand, const infra::ResourceVector& free,
    const ScavengingConfig& scavenging);

struct EngineConfig {
  bool record_series = true;      ///< ignored: the engine records no series
  /// Times a task killed by a failure is resubmitted before its job is
  /// abandoned; 0 abandons on the first kill.
  std::size_t max_retries = 16;
  ScavengingConfig scavenging;
  /// Node-scoring configuration for the placement pass (sched/scoring.hpp).
  /// The default (kNone) reproduces the legacy Fit-heuristic engine
  /// bit-identically — the digest goldens pin it.
  PlacementContext placement;
  /// Job-lifecycle spans: per-workload-class latency-decomposition
  /// histograms (span.<class>.queueing/placement/service/response/
  /// slowdown/abandon_seconds) plus task.queue / job.place trace spans.
  /// Off by default — the registry/trace digests of a default-config
  /// engine are pinned by the scalar goldens, so the extra instruments
  /// and events only exist when a harness opts in.
  bool lifecycle_spans = false;
};

/// Workload classes the lifecycle spans and SLO engine distinguish:
/// single-task bots vs multi-task workflows (workload::Job::is_workflow).
inline constexpr std::size_t kWorkloadClasses = 2;
/// Class index -> name ("bot", "workflow"), the span/SLO instrument infix.
[[nodiscard]] const char* workload_class_name(std::size_t klass);
/// Whether an SLO spec for `spec_class` covers workload class `klass`:
/// "all" covers every class, "bot" and "workflow" their own. set_slo
/// matches specs to classes with it.
[[nodiscard]] bool slo_class_covers(std::string_view spec_class,
                                    std::size_t klass);
/// obs::parse_slo_specs, rejecting any spec slo_class_covers gives no
/// class: a typo such as "bots" would otherwise report a vacuous
/// "MET, attainment 1 (0/0)". Throws std::invalid_argument.
[[nodiscard]] std::vector<obs::SloSpec> parse_engine_slo_specs(
    std::string_view text);

/// Final accounting for one completed (or abandoned) job: the facts only.
/// Wait, response and slowdown are derived from them on demand, so every
/// reader (histograms, SLO samples, traces, digests, RunResult) computes
/// the same doubles and no stored copy can disagree with the times.
struct JobStats {
  workload::JobId id = 0;
  sim::SimTime submit = 0;
  sim::SimTime first_start = 0;  ///< = finish when no task ever started
  sim::SimTime finish = 0;
  double critical_path_seconds = 0.0;
  std::size_t task_failures = 0;   ///< tasks killed by machine failures
  bool abandoned = false;          ///< exceeded retry budget

  /// First task start - submit.
  [[nodiscard]] double wait_seconds() const {
    return sim::to_seconds(first_start - submit);
  }
  /// Finish - submit.
  [[nodiscard]] double response_seconds() const {
    return sim::to_seconds(finish - submit);
  }
  /// Response / critical path (>= 1 ideal).
  [[nodiscard]] double slowdown() const {
    return response_seconds() / std::max(critical_path_seconds, 1e-6);
  }
};
// The engine keeps one record per finished job for the whole run.
static_assert(sizeof(JobStats) <= 56, "JobStats grew past 56 bytes");

class ExecutionEngine {
 public:
  ExecutionEngine(sim::Simulator& sim, infra::Datacenter& dc,
                  std::unique_ptr<AllocationPolicy> policy,
                  EngineConfig config = {});

  /// Submits a job; its arrival event fires at job.submit_time (which must
  /// be >= now).
  void submit(workload::Job job);
  void submit_all(std::vector<workload::Job> jobs);

  /// Swaps the allocation policy (portfolio scheduling, C9/C7).
  void set_policy(std::unique_ptr<AllocationPolicy> policy);
  [[nodiscard]] std::string policy_name() const { return policy_->name(); }

  // --- elasticity / provisioning hooks -------------------------------------

  /// Marks a machine as draining: no new placements; running work finishes.
  void drain(infra::MachineId id);
  void undrain(infra::MachineId id);
  [[nodiscard]] bool is_draining(infra::MachineId id) const;
  /// True when the machine executes no task of this engine.
  [[nodiscard]] bool idle(infra::MachineId id) const {
    return running_.idle(id);
  }

  /// Failure hook (wire to FailureInjector): kills tasks running on the
  /// machine; they are re-queued when retries remain.
  void on_machine_failed(infra::MachineId id);

  /// Re-evaluates the schedule (call after repairing/booting machines).
  void kick();

  /// Installs (or clears, with nullptr) the transition observer — the
  /// invariant-oracle hook. The observer must outlive the engine or be
  /// cleared before the engine is destroyed.
  void set_observer(EngineObserver* observer) { observer_ = observer; }
  [[nodiscard]] EngineObserver* observer() const { return observer_; }

  /// Installs (or clears, with nullptr) a flight-recorder tracer: the
  /// engine emits job/task lifecycle, kill, and drain events into it in
  /// simulated time (DESIGN.md §11). Independent of the observer slot so
  /// the invariant oracle and a tracer can ride the same run. The tracer
  /// must outlive the engine or be cleared first; event names are interned
  /// at install time so the emit paths stay allocation-free.
  void set_tracer(obs::Tracer* tracer);
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_; }

  /// Installs (or clears, with nullptr) the SLO engine: on every job
  /// completion/abandonment the engine feeds the response latency to the
  /// specs whose class matches the job ("bot"/"workflow"/"all" — matching
  /// is resolved to dense index lists here, so the completion path does no
  /// string work). The tracker must outlive the engine or be cleared
  /// first; the caller owns finalize() at end of run.
  void set_slo(obs::SloTracker* slo);
  [[nodiscard]] obs::SloTracker* slo() const { return slo_; }

  // --- state & metrics -------------------------------------------------------

  [[nodiscard]] bool all_done() const;
  [[nodiscard]] std::size_t jobs_submitted() const {
    return static_cast<std::size_t>(ctr_submitted_->value());
  }
  [[nodiscard]] std::size_t jobs_completed() const { return completed_.size(); }
  [[nodiscard]] const std::vector<JobStats>& completed() const { return completed_; }
  // mcs-lint: allow(R1) — the engine fault and slot tests
  // (tests/engine_*_test.cpp, tests/sched_test.cpp) check for leaked ready
  // and running entries through these two counts.
  [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
  // mcs-lint: allow(R1) — as ready_count().
  [[nodiscard]] std::size_t running_count() const {
    return running_.live_count();
  }
  [[nodiscard]] std::size_t tasks_killed() const {
    return static_cast<std::size_t>(ctr_tasks_killed_->value());
  }
  [[nodiscard]] std::size_t tasks_scavenged() const {
    return static_cast<std::size_t>(ctr_tasks_scavenged_->value());
  }

  /// The engine's metric instruments (jobs.submitted/completed/abandoned,
  /// tasks.started/finished/killed/scavenged counters; job wait/response/
  /// slowdown and task runtime histograms). Always present — the old
  /// ad-hoc tally members are these counters now — and mergeable across
  /// engines via obs::Registry::merge in flat sweep order.
  [[nodiscard]] const obs::Registry& registry() const { return registry_; }
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// Instantaneous demand in cores (wanted by ready + running tasks).
  [[nodiscard]] double demand_cores() const;
  /// Instantaneous supply in cores (of usable, non-draining machines).
  [[nodiscard]] double supply_cores() const;
  /// Pending work (ready + unstarted dependents + remaining running), in
  /// reference core-seconds — the Plan autoscaler's input.
  [[nodiscard]] double pending_work_core_seconds() const;
  /// Tasks that are ready now plus tasks expected to become ready within
  /// `window` (successors of tasks finishing in the window whose other
  /// deps are done) — the Token autoscaler's level-of-parallelism input.
  [[nodiscard]] std::size_t eligible_within(sim::SimTime window) const;

  /// Consumed core-seconds per user, materialized by name (reporting; the
  /// hot path accounts into the dense per-id vector below).
  [[nodiscard]] std::map<std::string, double> user_usage() const;
  /// Consumed core-seconds indexed by interned user id.
  // mcs-lint: allow(R1) — EngineSlotsTest.UserInterningSurvivesChurn
  // (tests/engine_slots_test.cpp) checks the dense per-id accounting.
  [[nodiscard]] const std::vector<double>& user_usage_by_id() const {
    return user_usage_;
  }

  /// The view the next round's policy will receive, brought up to date
  /// first (for surrogate evaluation by the portfolio scheduler). It reads
  /// the engine's live state, so it is valid until the engine next starts
  /// or ends a task or its fleet changes.
  [[nodiscard]] SchedulerView snapshot_view();

  /// Integrated busy core-seconds (for utilization reporting).
  [[nodiscard]] double busy_core_seconds() const { return busy_core_seconds_; }

 private:
  friend class mcs::check::InvariantChecker;

  /// Per-job state, recycled through the slot pool: the vectors keep their
  /// capacity across job churn, so re-initializing them with assign() in
  /// submit() allocates nothing once warmed up.
  struct JobSlot {
    workload::Job job;
    std::vector<std::uint32_t> missing_deps;  ///< per task
    std::vector<std::uint32_t> retries;       ///< per task
    std::vector<std::uint8_t> done;           ///< per task
    /// CSR successor lists (built once at submit; drives both the HEFT
    /// upward-rank sweep and O(out-degree) successor unlock on finish).
    std::vector<std::uint32_t> succ_offsets;  ///< size tasks+1
    std::vector<std::uint32_t> succ_targets;
    std::size_t remaining = 0;
    std::size_t failures = 0;
    sim::SimTime first_start = 0;
    bool started = false;
    std::uint8_t klass = 0;  ///< workload class (0 bot, 1 workflow)
    std::uint32_t user_id = 0;
    /// Zone label filter resolved at submit through the LabelFilterCache
    /// (map-node-stable reference); null = unconstrained.
    const std::vector<std::uint64_t>* zone_mask = nullptr;
  };

  void arrive(std::uint32_t job_slot);
  /// True when admit() starts `demand` within some machine's *total*
  /// capacity, restricted to `zone_mask` when non-null.
  [[nodiscard]] bool demand_satisfiable(
      const infra::ResourceVector& demand,
      const std::vector<std::uint64_t>* zone_mask) const;
  void enqueue_ready(JobSlot& jr, std::uint32_t job_slot,
                     std::size_t task_index, double rank);
  void try_schedule();
  /// The policy view: every field points at the engine's live state —
  /// time, queue, planned capacity, running set, usage and placement.
  /// No loop; current while view_current() holds.
  [[nodiscard]] SchedulerView live_view();
  /// True when planned_ equals a fresh build: no drain set change and no
  /// machine change the engine did not make since the last rebuild_view().
  [[nodiscard]] bool view_current() const {
    return !rebuild_pending_ && dc_.mutations() == expected_mutations_;
  }
  /// Rebuilds planned_ from the usable, non-draining machines: O(machines).
  void rebuild_view();
  /// Books an allocate or release this engine just made on machine `id`:
  /// one expected mutation, and its planned row re-read.
  void own_change(infra::MachineId id);
  /// How ready task `rt` would start on machine `id` now: not at all on a
  /// machine that is unusable, draining or outside its placement, else as
  /// admit() says within the machine's available capacity. Reads only.
  [[nodiscard]] std::optional<Admission> admits(const ReadyTask& rt,
                                                infra::MachineId id) const;
  /// Starts queued task `task` on `machine` as `admission` says; admits()
  /// returned it for the pair at this instant.
  void start_task(ReadyQueue::Handle task, infra::MachineId machine,
                  const Admission& admission);
  void finish_task(std::uint32_t key, std::uint32_t gen);
  void complete_job(std::uint32_t job_slot, bool abandoned);
  [[nodiscard]] std::uint32_t intern_user(const std::string& name);
  /// Reports a fully-applied transition to the installed observer (if any).
  // mcs-lint: hot
  void notify(EngineTransition t, infra::MachineId machine = kNoMachine) {
    if (observer_ != nullptr) observer_->on_transition(*this, t, machine);
  }

  sim::Simulator& sim_;
  infra::Datacenter& dc_;
  std::unique_ptr<AllocationPolicy> policy_;
  EngineConfig config_;

  core::SlotPool<JobSlot> jobs_;
  /// JobId -> slot, touched only at submit (duplicate detection) and job
  /// completion — never in the per-task loop.
  std::map<workload::JobId, std::uint32_t> id_to_slot_;
  ReadyQueue ready_;
  RunningSet running_;
  /// Draining machines as a bitset over dense machine ids.
  std::vector<std::uint64_t> draining_bits_;

  /// User interning: name -> dense id at submit; per-id accounting after.
  std::map<std::string, std::uint32_t> user_ids_;
  std::vector<double> user_usage_;  ///< core-seconds, indexed by user id

  std::vector<JobStats> completed_;
  double busy_core_seconds_ = 0.0;
  bool schedule_pending_ = false;
  EngineObserver* observer_ = nullptr;

  /// Instruments (registered in the constructor; recorded through cached
  /// pointers on the hot path — no name lookups after setup).
  obs::Registry registry_;
  obs::Counter* ctr_submitted_ = nullptr;
  obs::Counter* ctr_completed_ = nullptr;
  obs::Counter* ctr_abandoned_ = nullptr;
  obs::Counter* ctr_tasks_started_ = nullptr;
  obs::Counter* ctr_tasks_finished_ = nullptr;
  obs::Counter* ctr_tasks_killed_ = nullptr;
  obs::Counter* ctr_tasks_scavenged_ = nullptr;
  metrics::Histogram* h_job_wait_s_ = nullptr;
  metrics::Histogram* h_job_response_s_ = nullptr;
  metrics::Histogram* h_job_slowdown_ = nullptr;
  metrics::Histogram* h_task_runtime_s_ = nullptr;

  /// Per-workload-class latency-decomposition histograms; the pointers are
  /// null unless config.lifecycle_spans registered them in the ctor.
  struct SpanInstruments {
    metrics::Histogram* queueing = nullptr;   ///< ready -> start, per attempt
    metrics::Histogram* placement = nullptr;  ///< submit -> first start
    metrics::Histogram* service = nullptr;    ///< task start -> finish
    metrics::Histogram* response = nullptr;   ///< submit -> finish
    metrics::Histogram* slowdown = nullptr;   ///< response / critical path
    metrics::Histogram* abandon = nullptr;    ///< submit -> abandonment
  };
  SpanInstruments spans_[kWorkloadClasses];

  /// SLO engine attach (set_slo): per-class applicable spec indices, so
  /// the job-completion path feeds observations without string matching.
  obs::SloTracker* slo_ = nullptr;
  std::vector<std::size_t> slo_by_class_[kWorkloadClasses];

  /// Flight recorder (optional) + names interned at set_tracer time.
  obs::Tracer* tracer_ = nullptr;
  struct TraceNames {
    obs::NameId job_arrived{}, job{}, job_abandoned{}, task_start{}, task{},
        tasks_killed{}, drain{}, undrain{}, task_queue{}, job_place{};
  };
  TraceNames tn_;

  /// Zone expression -> machine bitset cache (submit-time resolution only).
  LabelFilterCache zone_cache_;

  /// The live view policies borrow: the usable, non-draining machines in
  /// id order and their planned rows. Between rounds it equals a fresh
  /// build unless view_current() is false.
  PlannedCapacity planned_;
  /// dc_.mutations() as the engine expects it: the count at the last
  /// rebuild plus one per allocate or release the engine made since.
  std::uint64_t expected_mutations_ = 0;
  /// Set by drain()/undrain().
  bool rebuild_pending_ = true;

  // Scratch buffers reused across scheduling rounds (capacity persists, so
  // refilling the per-round view allocates nothing once warmed up).
  /// A proposed start with its task's enqueue sequence, the sort key of
  /// try_schedule's apply loop.
  struct Start {
    std::uint64_t seq;
    Assignment assignment;
  };
  std::vector<Start> starts_scratch_;
  std::vector<double> rank_scratch_;
  std::vector<std::uint32_t> succ_cursor_;
};

/// Convenience driver: builds an engine, submits the trace, runs to
/// completion (with an optional horizon), and returns per-job stats.
struct RunResult {
  std::vector<JobStats> jobs;
  double mean_slowdown = 0.0;
  double p95_slowdown = 0.0;
  double mean_wait_seconds = 0.0;
  double makespan_seconds = 0.0;  ///< last finish - first submit
  double utilization = 0.0;       ///< busy core-seconds / (supply * makespan)
  std::size_t abandoned = 0;
};

[[nodiscard]] RunResult run_workload(infra::Datacenter& dc,
                                     std::vector<workload::Job> jobs,
                                     std::unique_ptr<AllocationPolicy> policy,
                                     EngineConfig config = {});

/// Aggregates stats from a finished engine.
[[nodiscard]] RunResult summarize_run(const ExecutionEngine& engine,
                                      const infra::Datacenter& dc);

}  // namespace mcs::sched
