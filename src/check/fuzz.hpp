// Deterministic scenario fuzzing for the scheduling stack (mcs_check).
//
// FoundationDB-style simulation testing, scoped to this repository: a seed
// fully determines a scenario — job DAG shapes, arrival bursts, a
// heterogeneous machine floor, mid-run machine crash/restart through
// failures::FailureModel, and autoscaler-style drain/power flapping — and
// each scenario runs in its own fresh Simulator under the invariant oracle
// (check/oracle.hpp). A batch of seeds fans across parallel::ThreadPool
// with SplitMix64 substreams (exp::run_sweep), and per-seed digests merge
// in flat grid order, so the batch summary is bit-identical at any
// MCS_THREADS and any single seed replays to the exact same trace.
//
// The seed is expanded in two stages: seed -> ScenarioSpec (a concrete,
// serializable parameter record) -> materialized scenario. The shrinker
// (check/shrink.hpp) operates on the spec, and every sub-model draws from
// its own substream of the spec seed, so shrinking one dimension (fewer
// jobs, fewer failure events) never perturbs the others.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "failures/failure_model.hpp"
#include "obs/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "workload/trace.hpp"

namespace mcs::check {

/// Everything a scenario run depends on, as plain serializable data.
/// `make_spec` randomizes these from a seed; the shrinker mutates them;
/// `to_text`/`from_text` round-trip them losslessly for repro files.
struct ScenarioSpec {
  std::uint64_t seed = 1;  ///< master seed; sub-models use substreams of it

  // Machine floor.
  std::size_t racks = 2;
  std::size_t per_rack = 4;
  bool heterogeneous = false;   ///< per-rack speed/capacity spread
  double accel_fraction = 0.0;  ///< fraction of machines with accelerators

  // Workload (trace substream). job_limit truncates the generated trace so
  // the shrinker can drop jobs without changing the survivors.
  workload::TraceConfig trace;
  std::size_t job_limit = static_cast<std::size_t>(-1);
  bool impossible_job = false;  ///< append a job no machine can ever fit

  // Engine.
  std::string policy = "fcfs";
  bool retry = true;
  std::size_t max_retries = 4;
  bool scavenging = false;

  // Failures (failure substream); failure_limit truncates the trace.
  bool failures_enabled = false;
  failures::FailureModelConfig failure;
  std::size_t failure_limit = static_cast<std::size_t>(-1);

  // Autoscaler-style flapping (flap substream): pairs of drain+undrain or
  // power-off+restore events at random times on random machines.
  std::size_t flap_count = 0;

  sim::SimTime horizon = 2 * sim::kHour;

  // SLO engine (obs/slo.hpp parse format; empty = off). A non-empty spec
  // switches the engine to lifecycle_spans mode, so the per-class span
  // histograms and SLO counters fold into the seed digest — scenarios
  // without it reproduce the legacy digests bit-identically.
  std::string slo;

  // Vector/placement heterogeneity profile (het + placement substreams).
  // Every knob defaults to inactive, so legacy seeds reproduce
  // bit-identically; `mcs_check --het` opts a batch into drawing these.
  std::string score_policy;          ///< "" = scalar pick_machine fast path
  std::uint64_t score_salt = 0;      ///< random-hash tie-break salt
  double net_capacity = 0.0;         ///< 4th-dim capacity scale; 0 = off
  double net_demand_fraction = 0.0;  ///< fraction of tasks demanding net
  std::size_t zone_count = 0;        ///< zones striped across racks; 0 = off
  double zone_job_fraction = 0.0;    ///< fraction of jobs zone-constrained
  double spread_fraction = 0.0;      ///< fraction of jobs with spread limit
  std::uint32_t spread_limit = 0;    ///< per-machine concurrent-task cap
};

/// Expands a seed into a randomized scenario spec (pure function). With
/// `het` the vector/placement knobs above are drawn from their own
/// substream on top of the legacy draws, which stay untouched.
[[nodiscard]] ScenarioSpec make_spec(std::uint64_t seed, bool het);

/// Lossless text round-trip (key=value lines; doubles at full precision).
[[nodiscard]] std::string to_text(const ScenarioSpec& spec);
/// Parses `to_text` output (unknown keys ignored, '#' comments skipped).
/// Throws std::invalid_argument on malformed input, including an `slo=`
/// line sched::parse_engine_slo_specs rejects and a `policy=` that
/// sched::all_policy_names() does not list.
[[nodiscard]] ScenarioSpec from_text(const std::string& text);

/// Outcome of one scenario run under the oracle.
struct SeedRunResult {
  std::uint64_t seed = 0;
  bool ok = true;
  std::string violation;  ///< oracle message when !ok
  /// Flight-recorder dump (obs::write_dump text) of the last events before
  /// the violation; empty when ok. mcs_check writes it next to the repro.
  std::string trace_dump;
  std::uint64_t events = 0;
  std::uint64_t transitions = 0;  ///< engine transitions observed
  std::uint64_t checks = 0;       ///< oracle sweeps performed
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;  ///< finished normally
  std::size_t jobs_abandoned = 0;
  std::size_t tasks_killed = 0;
  std::uint64_t digest = 0;  ///< order-sensitive hash of the run's trace
  /// Snapshot of the engine registry (spans, SLO counters, ...); only
  /// populated when the run asked for registry capture (--report path).
  std::shared_ptr<obs::Registry> registry;
};

/// Runs one materialized scenario to quiescence under the oracle. Never
/// throws for oracle violations — they are reported in the result.
/// `capture_registry` snapshots the engine registry into the result.
[[nodiscard]] SeedRunResult run_spec(const ScenarioSpec& spec,
                                     bool capture_registry);
[[nodiscard]] SeedRunResult run_spec(const ScenarioSpec& spec);

/// The substream seed for seed index `i` of a batch (exp::substream_seed
/// of the base; `mcs_check --seed I` replays exactly batch index I).
[[nodiscard]] std::uint64_t seed_for_index(std::uint64_t base_seed,
                                           std::size_t index);

struct FuzzOptions {
  std::size_t seeds = 100;
  std::uint64_t base_seed = 1;
  /// Draw the vector/placement heterogeneity knobs for every scenario.
  bool het = false;
  /// SLO spec applied to every scenario (obs/slo.hpp format; empty = off).
  std::string slo;
  /// Merge every seed's registry into FuzzReport::registry (flat order).
  bool capture_registry = false;
  /// Pool to fan out on; parallel::default_pool() when null.
  parallel::ThreadPool* pool = nullptr;
};

struct FuzzReport {
  std::size_t seeds_run = 0;
  std::vector<std::size_t> failing_indices;  ///< batch indices that violated
  std::vector<SeedRunResult> failures;       ///< same order as indices
  std::uint64_t summary_digest = 0;  ///< per-seed digests merged in order
  std::uint64_t total_events = 0;
  std::uint64_t total_transitions = 0;
  std::uint64_t total_checks = 0;
  std::size_t total_completed = 0;
  std::size_t total_abandoned = 0;
  std::size_t total_tasks_killed = 0;
  /// All seeds' registries merged in flat batch order; null unless
  /// FuzzOptions::capture_registry (the mcs_check --report input).
  std::shared_ptr<obs::Registry> registry;
};

/// Fans `opt.seeds` scenarios across the pool; deterministic at any thread
/// count (one Simulator per seed, digests merged in flat order).
[[nodiscard]] FuzzReport run_fuzz(const FuzzOptions& opt);

}  // namespace mcs::check
