// The execution engine: event-driven job/task lifecycle on a datacenter.
//
// This is the Back-end layer of the Fig. 3 reference architecture (task and
// resource management on behalf of the application). It owns the ready
// queue, invokes the pluggable AllocationPolicy, runs tasks on machines
// (runtime = work / machine speed), tracks dependencies, survives machine
// failures by re-queueing killed tasks, supports draining for elastic
// provisioning, and records the demand/supply series the SPEC elasticity
// metrics and autoscalers consume.
//
// Storage discipline (DESIGN.md §9): jobs and running tasks live in
// core::SlotPool arenas addressed by dense uint32 slot indices, draining is
// a machine-id bitset, and user names are interned to dense ids at submit.
// Together with scratch buffers reused across scheduling rounds, the
// steady-state submit -> allocate -> run -> complete loop performs zero
// heap allocation once warmed up (enforced by mcs_lint rule H2 via the
// `// mcs-lint: hot` annotations in engine.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/slot_pool.hpp"
#include "infra/topology.hpp"
#include "metrics/elasticity.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "sched/allocation.hpp"
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

struct EngineConfig {
  bool record_series = true;      ///< keep demand/supply StepSeries
  bool retry_failed_tasks = true; ///< resubmit tasks killed by failures
  std::size_t max_retries = 16;   ///< per task, before the job is abandoned
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

/// Final accounting for one completed (or abandoned) job.
struct JobStats {
  workload::JobId id = 0;
  std::string user;
  sim::SimTime submit = 0;
  sim::SimTime first_start = 0;
  sim::SimTime finish = 0;
  double wait_seconds = 0.0;       ///< first task start - submit
  double response_seconds = 0.0;   ///< finish - submit
  double slowdown = 1.0;           ///< response / critical path (>= 1 ideal)
  double critical_path_seconds = 0.0;
  std::size_t tasks = 0;
  std::size_t task_failures = 0;   ///< tasks killed by machine failures
  bool abandoned = false;          ///< exceeded retry budget
};

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
  [[nodiscard]] bool idle(infra::MachineId id) const;

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
  [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
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

  /// Demand (cores wanted by ready+running tasks) and supply (cores of
  /// usable, non-draining machines) step series for elasticity metrics.
  [[nodiscard]] const metrics::StepSeries& demand_series() const { return demand_; }
  [[nodiscard]] const metrics::StepSeries& supply_series() const { return supply_; }

  /// Instantaneous demand in cores.
  [[nodiscard]] double demand_cores() const;
  /// Instantaneous supply in cores.
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
  [[nodiscard]] const std::vector<double>& user_usage_by_id() const {
    return user_usage_;
  }
  [[nodiscard]] const std::string& user_name(std::uint32_t user_id) const {
    return user_names_[user_id];
  }

  /// Builds the same view a policy would receive (for surrogate evaluation
  /// by the portfolio scheduler). `running_storage` must outlive the view.
  [[nodiscard]] SchedulerView snapshot_view(
      std::vector<RunningView>& running_storage) const;

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

  struct RunningSlot {
    std::uint32_t job_slot = 0;
    std::uint32_t task_index = 0;
    infra::MachineId machine = 0;
    sim::SimTime start = 0;
    sim::SimTime expected_end = 0;
    infra::ResourceVector held;   ///< resources actually held on machine
    double work_seconds = 0.0;    ///< for usage accounting
    sim::EventHandle completion;
  };

  void arrive(std::uint32_t job_slot);
  /// True when some machine's *total* capacity covers `demand` (granting
  /// maximal memory scavenging), restricted to `zone_mask` when non-null.
  [[nodiscard]] bool demand_satisfiable(
      const infra::ResourceVector& demand,
      const std::vector<std::uint64_t>* zone_mask) const;
  /// Zone + anti-affinity re-validation against *live* running state (the
  /// exact check backing the policies' advisory table).
  [[nodiscard]] bool placement_allows_start(const ReadyTask& rt,
                                            infra::MachineId machine) const;
  /// Rebuilds the (job_slot, machine) -> running-count table policies
  /// consult for spread constraints.
  void build_aa_table();
  void enqueue_ready(JobSlot& jr, std::uint32_t job_slot,
                     std::size_t task_index, double rank);
  void try_schedule();
  /// Fills the policy view (usable machines, running set into `running`)
  /// shared by try_schedule and snapshot_view; the anti-affinity table is
  /// try_schedule's alone.
  void fill_view(SchedulerView& view, std::vector<RunningView>& running) const;
  bool start_task(std::size_t ready_index, infra::MachineId machine);
  void finish_task(std::uint32_t key, std::uint32_t gen);
  void complete_job(std::uint32_t job_slot, bool abandoned);
  [[nodiscard]] std::uint32_t intern_user(const std::string& name);
  void record_series_point();
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
  std::vector<ReadyTask> ready_;
  core::SlotPool<RunningSlot> running_;
  /// Draining machines as a bitset over dense machine ids.
  std::vector<std::uint64_t> draining_bits_;

  /// User interning: name -> dense id at submit; per-id accounting after.
  std::map<std::string, std::uint32_t> user_ids_;
  std::vector<std::string> user_names_;
  std::vector<double> user_usage_;  ///< core-seconds, indexed by user id

  std::vector<JobStats> completed_;
  double busy_core_seconds_ = 0.0;
  metrics::StepSeries demand_;
  metrics::StepSeries supply_;
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
  /// Live jobs carrying a spread limit; the anti-affinity table is only
  /// built while this is non-zero, so unconstrained workloads pay nothing.
  std::size_t spread_jobs_live_ = 0;

  // Scratch buffers reused across scheduling rounds (capacity persists, so
  // rebuilding the per-round view allocates nothing once warmed up).
  std::vector<const infra::Machine*> machines_scratch_;
  std::vector<RunningView> running_scratch_;
  std::vector<Assignment> sorted_scratch_;
  std::vector<AaCount> aa_scratch_;
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
