// Autoscalers (C3/C6/C7), reimplementing the decision rules of the seven
// policies in the comparison the paper invokes (Ilyushkin et al. [43]):
//
//   General-purpose (demand signal only):
//    - React   (Chieu et al.): supply := current demand.
//    - Adapt   (Ali-Eldin et al.): proportional controller with bounded
//              step, smoothing the reaction to demand changes.
//    - Hist    (Urgaonkar et al.): histogram prediction per hour-of-day
//              bucket, provisioning for the bucket's high percentile.
//    - Reg     (Iqbal et al.): linear regression over the recent demand
//              history, provisioning for the predicted next value.
//    - ConPaaS (Fernandez et al.): time-series forecast (Holt double
//              exponential smoothing).
//   Workflow-aware (structure signal from the engine):
//    - Plan:  enough machines to drain the pending work within a target
//             horizon, bounded by the eligible level of parallelism.
//    - Token: supply := tokens, the number of tasks eligible to run within
//             one interval (level-of-parallelism tracking).
//
// The published shape this reproduces (bench/exp_autoscalers): demand-based
// scalers track supply accuracy well; workflow-aware scalers win on job
// slowdown; no autoscaling wastes resources or starves the queue.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "metrics/elasticity.hpp"
#include "sched/engine.hpp"
#include "sched/provisioning.hpp"
#include "sim/simulator.hpp"

namespace mcs::autoscale {

struct AutoscaleContext {
  sim::SimTime now = 0;
  /// Instantaneous demand expressed in machines.
  double demand_machines = 0.0;
  /// Demand history: one sample per past tick (machines).
  const std::vector<double>* demand_history = nullptr;
  std::size_t supply_machines = 0;
  std::size_t max_machines = 1;
  // Workflow-aware signals (engine-provided).
  double pending_work_machine_seconds = 0.0;
  std::size_t eligible_tasks = 0;
  double cores_per_machine = 1.0;
  double mean_task_cores = 1.0;
};

class Autoscaler {
 public:
  virtual ~Autoscaler() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Returns the desired machine count (clamped by the runner).
  [[nodiscard]] virtual std::size_t decide(const AutoscaleContext& ctx) = 0;
};

[[nodiscard]] std::unique_ptr<Autoscaler> make_no_scaler();  ///< pins max
/// Demand plus 10% headroom.
[[nodiscard]] std::unique_ptr<Autoscaler> make_react();
/// Closes half the demand-supply gap per tick, at most 4 machines.
[[nodiscard]] std::unique_ptr<Autoscaler> make_adapt();
/// The 90th percentile of the current hour-of-day's demand samples.
[[nodiscard]] std::unique_ptr<Autoscaler> make_hist();
/// A least-squares line over the last 10 demand samples, one tick ahead.
[[nodiscard]] std::unique_ptr<Autoscaler> make_reg();
[[nodiscard]] std::unique_ptr<Autoscaler> make_conpaas(double alpha = 0.5,
                                                       double beta = 0.3);
/// Drains the pending work within 5 minutes, bounded by its parallelism.
[[nodiscard]] std::unique_ptr<Autoscaler> make_plan();
[[nodiscard]] std::unique_ptr<Autoscaler> make_token();
/// PID feedback controller on the demand-supply error — the classic
/// "feedback control-based technique" class of the paper's self-awareness
/// survey [95] (C6 approach class (i)).
[[nodiscard]] std::unique_ptr<Autoscaler> make_pid(double kp = 0.8,
                                                   double ki = 0.15,
                                                   double kd = 0.1);

[[nodiscard]] std::vector<std::string> all_autoscaler_names();
[[nodiscard]] std::unique_ptr<Autoscaler> make_autoscaler(
    const std::string& name);

// ---- the runner ---------------------------------------------------------------

/// The engine places tasks first-come first-served; the pool never shrinks
/// below provisioning.min_machines, where it also starts.
struct AutoscaleRunConfig {
  sim::SimTime interval = 30 * sim::kSecond;
  std::size_t max_machines = 64;
  sched::ProvisioningConfig provisioning;
  /// Observability (DESIGN.md §11), both optional: the tracer receives the
  /// engine's lifecycle events plus per-tick `autoscale.decision` instants
  /// and demand/supply/target counter samples; the registry receives
  /// autoscale.ticks / scale_ups / scale_downs counters and the
  /// target-machines gauge (merged with the engine's own instruments when
  /// the caller passes `&engine.registry()`-style shared registries).
  obs::Tracer* tracer = nullptr;
  obs::Registry* registry = nullptr;
  /// Engine construction knobs (lifecycle spans, retries, scavenging...).
  sched::EngineConfig engine;
  /// Optional SLO tracker (obs/slo.hpp) fed by the engine's completions.
  /// run_autoscaled finalizes it at the end of the run — the Simulator is
  /// internal, so the caller never sees the final sim time.
  obs::SloTracker* slo = nullptr;
};

struct AutoscaleRunResult {
  std::string autoscaler;
  metrics::ElasticityReport elasticity;  ///< machine-axis supply vs demand
  double elasticity_score = 0.0;
  sched::RunResult sched;
  double cost = 0.0;                     ///< billed machine-hours * price
  double avg_machines = 0.0;
  std::size_t ticks = 0;
};

/// Runs the workload on `dc` under the autoscaler; the pool starts at
/// provisioning.min_machines. Returns elasticity + scheduling metrics.
[[nodiscard]] AutoscaleRunResult run_autoscaled(
    infra::Datacenter& dc, std::vector<workload::Job> jobs,
    std::unique_ptr<Autoscaler> autoscaler, const AutoscaleRunConfig& config);

}  // namespace mcs::autoscale
