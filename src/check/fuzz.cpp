#include "check/fuzz.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "check/oracle.hpp"
#include "core/parse.hpp"
#include "exp/sweep.hpp"
#include "metrics/stats.hpp"
#include "obs/export.hpp"
#include "obs/slo.hpp"
#include "sched/engine.hpp"
#include "sim/random.hpp"

namespace mcs::check {

namespace {

// Fixed substream tags: every sub-model of a scenario draws from its own
// stream of the spec seed, so shrinking one dimension (fewer jobs, fewer
// flaps) never perturbs what the others generate.
constexpr std::uint64_t kParamStream = 0;
constexpr std::uint64_t kDcStream = 1;
constexpr std::uint64_t kTraceStream = 2;
constexpr std::uint64_t kFailureStream = 3;
constexpr std::uint64_t kFlapStream = 4;
// New substreams for the --het profile; legacy streams never see these
// draws, so scalar scenarios stay bit-identical.
constexpr std::uint64_t kHetStream = 5;
constexpr std::uint64_t kPlacementStream = 6;

/// Job id for the optional never-placeable job — far above trace ids.
constexpr workload::JobId kImpossibleJobId = 1'000'000;

infra::Datacenter materialize_dc(const ScenarioSpec& spec) {
  infra::Datacenter dc("fuzz-dc", "sim");
  sim::Rng rng(exp::substream_seed(spec.seed, kDcStream));
  for (std::size_t r = 0; r < spec.racks; ++r) {
    const double speed = spec.heterogeneous ? rng.uniform(0.6, 2.0) : 1.0;
    const double cores =
        spec.heterogeneous
            ? static_cast<double>(4 << rng.uniform_int(0, 2))  // 4/8/16
            : 8.0;
    for (std::size_t m = 0; m < spec.per_rack; ++m) {
      const double accel = rng.uniform() < spec.accel_fraction ? 2.0 : 0.0;
      // The 4th (net) dimension draws only when the knob is active, so
      // legacy specs consume the exact same kDcStream sequence.
      const double net = spec.net_capacity > 0.0
                             ? spec.net_capacity * rng.uniform(0.5, 1.0)
                             : 0.0;
      infra::Machine& machine = dc.add_machine(
          "m-" + std::to_string(r) + "-" + std::to_string(m),
          infra::ResourceVector{cores, cores * 4.0, accel, net}, speed, r);
      if (spec.zone_count > 0) {
        dc.set_zone(machine.id(),
                    "z" + std::to_string(r % spec.zone_count));
      }
    }
  }
  return dc;
}

std::vector<workload::Job> materialize_jobs(const ScenarioSpec& spec) {
  sim::Rng rng(exp::substream_seed(spec.seed, kTraceStream));
  auto jobs = workload::generate_trace(spec.trace, rng);
  if (spec.job_limit < jobs.size()) jobs.resize(spec.job_limit);
  // Placement/vector-demand decoration (placement substream). Runs after
  // job_limit truncation and draws per surviving job in order, so the
  // shrinker's job-prefix bisection keeps survivors stable.
  if (spec.zone_count > 0 || spec.spread_fraction > 0.0 ||
      spec.net_demand_fraction > 0.0) {
    sim::Rng prng(exp::substream_seed(spec.seed, kPlacementStream));
    for (workload::Job& job : jobs) {
      if (spec.zone_count > 0 && prng.chance(spec.zone_job_fraction)) {
        const std::size_t z = static_cast<std::size_t>(prng.uniform_int(
            0, static_cast<std::int64_t>(spec.zone_count) - 1));
        job.placement.zones = "z" + std::to_string(z);
        if (spec.zone_count > 1 && prng.chance(0.3)) {
          job.placement.zones +=
              ",z" + std::to_string((z + 1) % spec.zone_count);
        }
      }
      if (spec.spread_fraction > 0.0 && prng.chance(spec.spread_fraction)) {
        job.placement.spread_limit = spec.spread_limit;
      }
      if (spec.net_demand_fraction > 0.0) {
        for (workload::Task& task : job.tasks) {
          if (prng.chance(spec.net_demand_fraction)) {
            // Up to 1.25x the fleet's net scale: some tasks are only
            // satisfiable on the best-provisioned machines, a few on none
            // (exercising zone-aware abandonment).
            task.demand.net() = prng.uniform(0.5, spec.net_capacity * 1.25);
          }
        }
      }
    }
  }
  if (spec.impossible_job) {
    workload::Job job;
    job.id = kImpossibleJobId;
    job.user = "fuzz-impossible";
    job.submit_time = spec.horizon / 2;
    workload::Task task;
    task.work_seconds = 1.0;
    task.demand = infra::ResourceVector{1e6, 1e6, 0.0};
    job.tasks.push_back(task);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// One drain/undrain or power-off/restore pair, fully precomputed so the
/// list is a pure function of the flap substream (and prefix-stable under
/// flap_count shrinking).
struct Flap {
  sim::SimTime at = 0;
  sim::SimTime duration = 0;
  infra::MachineId machine = 0;
  bool power = false;  ///< power flap (off/restore) vs drain flap
};

std::vector<Flap> materialize_flaps(const ScenarioSpec& spec,
                                    std::size_t machine_count) {
  std::vector<Flap> flaps;
  if (machine_count == 0) return flaps;
  sim::Rng rng(exp::substream_seed(spec.seed, kFlapStream));
  flaps.reserve(spec.flap_count);
  for (std::size_t i = 0; i < spec.flap_count; ++i) {
    Flap f;
    f.at = sim::from_seconds(
        rng.uniform(0.0, sim::to_seconds(spec.horizon)));
    f.duration = sim::from_seconds(rng.uniform(1.0, 600.0));
    f.machine = static_cast<infra::MachineId>(
        rng.uniform_int(0, static_cast<std::int64_t>(machine_count) - 1));
    f.power = rng.chance(0.5);
    flaps.push_back(f);
  }
  return flaps;
}

/// Calls f(key, field) for every ScenarioSpec field, in repro-file order:
/// the one list both to_text and from_text walk.
template <typename Spec, typename F>
void for_each_field(Spec& spec, F&& f) {
  f("seed", spec.seed);
  f("racks", spec.racks);
  f("per_rack", spec.per_rack);
  f("heterogeneous", spec.heterogeneous);
  f("accel_fraction", spec.accel_fraction);
  f("trace.job_count", spec.trace.job_count);
  f("trace.arrivals", spec.trace.arrivals);
  f("trace.arrival_rate_per_hour", spec.trace.arrival_rate_per_hour);
  f("trace.workflow_fraction", spec.trace.workflow_fraction);
  f("trace.workflow_width", spec.trace.workflow_width);
  f("trace.mean_tasks_per_job", spec.trace.mean_tasks_per_job);
  f("trace.mean_task_seconds", spec.trace.mean_task_seconds);
  f("trace.cv_task_seconds", spec.trace.cv_task_seconds);
  f("trace.mean_cores_per_task", spec.trace.mean_cores_per_task);
  f("trace.memory_per_core_gib", spec.trace.memory_per_core_gib);
  f("trace.accelerated_fraction", spec.trace.accelerated_fraction);
  f("trace.user_count", spec.trace.user_count);
  f("trace.fragmentation_factor", spec.trace.fragmentation_factor);
  f("job_limit", spec.job_limit);
  f("impossible_job", spec.impossible_job);
  f("policy", spec.policy);
  f("retry", spec.retry);
  f("max_retries", spec.max_retries);
  f("scavenging", spec.scavenging);
  f("failures_enabled", spec.failures_enabled);
  f("failure.mode", spec.failure.mode);
  f("failure.failures_per_machine_day", spec.failure.failures_per_machine_day);
  f("failure.mean_repair_seconds", spec.failure.mean_repair_seconds);
  f("failure.cv_repair", spec.failure.cv_repair);
  f("failure.mean_burst_size", spec.failure.mean_burst_size);
  f("failure.weibull_shape", spec.failure.weibull_shape);
  f("failure_limit", spec.failure_limit);
  f("flap_count", spec.flap_count);
  f("horizon", spec.horizon);
  f("slo", spec.slo);
  f("score_policy", spec.score_policy);
  f("score_salt", spec.score_salt);
  f("net_capacity", spec.net_capacity);
  f("net_demand_fraction", spec.net_demand_fraction);
  f("zone_count", spec.zone_count);
  f("zone_job_fraction", spec.zone_job_fraction);
  f("spread_fraction", spec.spread_fraction);
  f("spread_limit", spec.spread_limit);
}

/// The last enumerator of each enum a spec carries; larger values are
/// malformed.
constexpr workload::ArrivalKind last_enumerator(workload::ArrivalKind) {
  return workload::ArrivalKind::kDiurnal;
}
constexpr failures::CorrelationMode last_enumerator(failures::CorrelationMode) {
  return failures::CorrelationMode::kSpaceAndTime;
}

/// Parses the whole of `text` as a T: bools are 0 or 1, enums a number up
/// to their last enumerator, numbers what core::parse_whole takes (finite
/// plain decimals, a '-' only where the type is signed). False when `text`
/// is not such a value.
template <typename T>
bool parse_value(const std::string& text, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out = text;
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    out = text == "1";
    return out || text == "0";
  } else if constexpr (std::is_enum_v<T>) {
    int v = 0;
    if (!parse_value(text, v) || v < 0 ||
        v > static_cast<int>(last_enumerator(T{}))) {
      return false;
    }
    out = static_cast<T>(v);
    return true;
  } else {
    return core::parse_whole(text, out);
  }
}

}  // namespace

ScenarioSpec make_spec(std::uint64_t seed, bool het) {
  ScenarioSpec spec;
  spec.seed = seed;
  sim::Rng rng(exp::substream_seed(seed, kParamStream));

  spec.racks = static_cast<std::size_t>(rng.uniform_int(1, 4));
  spec.per_rack = static_cast<std::size_t>(rng.uniform_int(2, 8));
  spec.heterogeneous = rng.chance(0.5);
  spec.accel_fraction = rng.chance(0.4) ? 0.25 : 0.0;

  spec.trace.job_count = static_cast<std::size_t>(rng.uniform_int(5, 50));
  spec.trace.arrivals = static_cast<workload::ArrivalKind>(
      rng.uniform_int(0, 2));
  spec.trace.arrival_rate_per_hour = rng.uniform(200.0, 3000.0);
  spec.trace.workflow_fraction =
      rng.chance(0.5) ? rng.uniform(0.2, 1.0) : 0.0;
  spec.trace.workflow_width =
      static_cast<std::size_t>(rng.uniform_int(2, 16));
  spec.trace.mean_tasks_per_job = rng.uniform(2.0, 12.0);
  spec.trace.mean_task_seconds = rng.uniform(10.0, 120.0);
  spec.trace.cv_task_seconds = rng.uniform(0.3, 3.0);
  spec.trace.mean_cores_per_task = rng.uniform(1.0, 4.0);
  spec.trace.memory_per_core_gib = rng.uniform(1.0, 4.0);
  spec.trace.accelerated_fraction =
      spec.accel_fraction > 0.0 ? rng.uniform(0.0, 0.3) : 0.0;
  spec.trace.user_count = static_cast<std::size_t>(rng.uniform_int(1, 5));
  spec.impossible_job = rng.chance(0.2);

  const auto policies = sched::all_policy_names();
  spec.policy = policies[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(policies.size()) - 1))];
  spec.retry = rng.chance(0.8);
  spec.max_retries = static_cast<std::size_t>(rng.uniform_int(0, 8));
  spec.scavenging = rng.chance(0.3);

  spec.failures_enabled = rng.chance(0.75);
  spec.failure.mode = static_cast<failures::CorrelationMode>(
      rng.uniform_int(0, 3));
  spec.failure.failures_per_machine_day = rng.uniform(0.5, 20.0);
  spec.failure.mean_repair_seconds = rng.uniform(30.0, 900.0);
  spec.failure.cv_repair = rng.uniform(0.5, 2.0);
  spec.failure.mean_burst_size = rng.uniform(2.0, 6.0);
  spec.failure.weibull_shape = rng.uniform(0.4, 0.9);

  spec.flap_count = static_cast<std::size_t>(rng.uniform_int(0, 6));
  spec.horizon = sim::from_seconds(rng.uniform(3600.0, 3.0 * 3600.0));

  if (het) {
    // All het knobs draw from their own substream *after* the legacy
    // draws, so a het spec's machine floor / trace / failures match the
    // scalar spec of the same seed except where a knob explicitly applies.
    sim::Rng h(exp::substream_seed(seed, kHetStream));
    static constexpr const char* kScoreNames[] = {
        "", "random-hash", "free-share-variance", "squared-min-delta"};
    spec.score_policy = kScoreNames[h.uniform_int(0, 3)];
    spec.score_salt = static_cast<std::uint64_t>(h.uniform_int(0, 1 << 20));
    if (h.chance(0.5)) {
      spec.net_capacity = h.uniform(4.0, 16.0);
      spec.net_demand_fraction = h.uniform(0.1, 0.5);
    }
    if (h.chance(0.6)) {
      spec.zone_count = static_cast<std::size_t>(h.uniform_int(2, 4));
      spec.zone_job_fraction = h.uniform(0.2, 0.8);
    }
    if (h.chance(0.5)) {
      spec.spread_fraction = h.uniform(0.2, 0.6);
      spec.spread_limit = static_cast<std::uint32_t>(h.uniform_int(1, 3));
    }
    if (h.chance(0.5)) {
      // GPU-sparse fleet: few accelerator machines, real gpu demand.
      spec.accel_fraction = h.uniform(0.05, 0.3);
      spec.trace.accelerated_fraction = h.uniform(0.05, 0.3);
    }
  }
  return spec;
}

SeedRunResult run_spec(const ScenarioSpec& spec) {
  return run_spec(spec, /*capture_registry=*/false);
}

SeedRunResult run_spec(const ScenarioSpec& spec, bool capture_registry) {
  SeedRunResult result;
  result.seed = spec.seed;

  sim::Simulator sim;
  infra::Datacenter dc = materialize_dc(spec);

  sched::EngineConfig config;
  config.max_retries = spec.retry ? spec.max_retries : 0;
  config.scavenging.enabled = spec.scavenging;
  config.placement.score = sched::score_policy_from_string(spec.score_policy);
  config.placement.salt = spec.score_salt;
  // An SLO spec opts the scenario into lifecycle spans; without one the
  // instrument set and trace events — and therefore the digest — match
  // the legacy goldens exactly.
  config.lifecycle_spans = !spec.slo.empty();

  sched::ExecutionEngine engine(sim, dc, sched::make_policy(spec.policy),
                                config);

  InvariantChecker::Options oracle_options;
  oracle_options.exclusive_allocation = true;
  InvariantChecker oracle(sim, dc, oracle_options);
  oracle.attach(engine);

  // Flight recorder (DESIGN.md §11): a small ring of the most recent
  // lifecycle events rides along on every fuzz run. On a violation its
  // dump lands next to the shrunken repro; its digest is folded into the
  // per-seed digest either way, so the thread-count-invariance gate also
  // covers the tracing layer.
  obs::Tracer recorder(/*capacity=*/512);
  engine.set_tracer(&recorder);

  // SLO engine: its counters land in engine.registry() and its threshold
  // crossings in the recorder ring, so SLO state folds into the seed
  // digest below with no extra plumbing.
  std::unique_ptr<obs::SloTracker> slo;
  if (!spec.slo.empty()) {
    slo = std::make_unique<obs::SloTracker>(obs::parse_slo_specs(spec.slo),
                                            engine.registry(), &recorder);
    engine.set_slo(slo.get());
  }

  try {
    // A bad failure parameter throws here and is reported like any other
    // run error. The injector outlives run_until (its events capture
    // `this`) and registers its counter after the SLO tracker's, as the
    // registry digest expects.
    std::vector<failures::FailureEvent> failure_trace;
    if (spec.failures_enabled) {
      sim::Rng rng(exp::substream_seed(spec.seed, kFailureStream));
      failure_trace = failures::generate_failure_trace(dc, spec.failure,
                                                       spec.horizon, rng);
      if (spec.failure_limit < failure_trace.size()) {
        failure_trace.resize(spec.failure_limit);
      }
    }
    failures::FailureInjector injector(sim, dc, failure_trace);
    injector.attach_observability(&recorder, &engine.registry());

    engine.submit_all(materialize_jobs(spec));
    injector.arm(
        [&engine](infra::MachineId id) { engine.on_machine_failed(id); },
        [&engine](infra::MachineId) { engine.kick(); });

    for (const Flap& f : materialize_flaps(spec, dc.machine_count())) {
      const infra::MachineId m = f.machine;
      if (f.power) {
        // Autoscaler-style elasticity: power an *idle* machine down and
        // restore it later (a real provisioner drains before power-off).
        sim.schedule_at(f.at, [&engine, &dc, m] {
          infra::Machine& machine = dc.machine(m);
          if (machine.state() == infra::MachineState::kOperational &&
              engine.idle(m)) {
            machine.set_state(infra::MachineState::kOff);
          }
        });
        sim.schedule_at(f.at + f.duration, [&engine, &dc, m] {
          infra::Machine& machine = dc.machine(m);
          if (machine.state() == infra::MachineState::kOff) {
            machine.set_state(infra::MachineState::kOperational);
            engine.kick();
          }
        });
      } else {
        sim.schedule_at(f.at, [&engine, m] { engine.drain(m); });
        sim.schedule_at(f.at + f.duration,
                        [&engine, m] { engine.undrain(m); });
      }
    }

    // Scenarios are finite by construction (every failure gets a repair,
    // every flap a restore, no recurring monitors), so the queue drains.
    sim.run_until();
    oracle.verify(engine, "end-of-run");
    if (!engine.all_done()) {
      throw OracleViolation(
          "ORACLE VIOLATION [quiescence] scenario did not drain: " +
          oracle.quiescence_report(engine));
    }
  } catch (const OracleViolation& violation) {
    result.ok = false;
    result.violation = violation.what();
  } catch (const std::exception& ex) {
    // Engine/machine logic errors (double release, over-allocation) are
    // state-machine bugs too — report them like oracle findings.
    result.ok = false;
    result.violation = std::string("EXCEPTION: ") + ex.what();
  }
  // Close open SLO violation intervals before any digesting/dumping so
  // the violation-minute counters are complete (and deterministic).
  if (slo != nullptr) slo->finalize(sim.now());
  if (!result.ok) result.trace_dump = obs::dump_to_string(recorder);

  result.events = sim.executed();
  result.transitions = oracle.transitions();
  result.checks = oracle.checks();
  result.jobs_submitted = engine.jobs_submitted();
  result.tasks_killed = engine.tasks_killed();
  for (const sched::JobStats& j : engine.completed()) {
    if (j.abandoned) {
      ++result.jobs_abandoned;
    } else {
      ++result.jobs_completed;
    }
  }

  // Order-sensitive trace digest: replaying the same spec must reproduce
  // this exactly (and it feeds the batch summary digest in flat order).
  metrics::Digest digest;
  digest.add_u64(result.events);
  digest.add_u64(result.transitions);
  digest.add_u64(static_cast<std::uint64_t>(result.jobs_submitted));
  digest.add_u64(static_cast<std::uint64_t>(result.tasks_killed));
  digest.add_u64(result.ok ? 1 : 0);
  for (const sched::JobStats& j : engine.completed()) {
    digest.add_u64(j.id);
    digest.add_u64(j.abandoned ? 1 : 0);
    digest.add_u64(static_cast<std::uint64_t>(j.submit));
    digest.add_u64(static_cast<std::uint64_t>(j.finish));
    digest.add_u64(static_cast<std::uint64_t>(j.task_failures));
    digest.add_double(j.slowdown());
  }
  // The observability layer is part of the determinism contract: fold the
  // flight-recorder ring digest and the instrument registry too, so any
  // thread-count-dependent tracing/metrics bug fails the fuzz gates.
  digest.add_u64(recorder.digest());
  engine.registry().fold_digest(digest);
  result.digest = digest.value();
  if (capture_registry) {
    result.registry = std::make_shared<obs::Registry>();
    result.registry->merge(engine.registry());
  }
  return result;
}

std::uint64_t seed_for_index(std::uint64_t base_seed, std::size_t index) {
  // Matches exp::run_sweep's cell seeding for (scenario=index, rep=0).
  return exp::substream_seed(exp::substream_seed(base_seed, index), 0);
}

FuzzReport run_fuzz(const FuzzOptions& opt) {
  exp::SweepOptions sweep;
  sweep.reps = 1;
  sweep.base_seed = opt.base_seed;
  sweep.pool = opt.pool;

  const bool het = opt.het;
  const std::string slo = opt.slo;
  const bool capture = opt.capture_registry;
  const auto results = exp::run_sweep<SeedRunResult>(
      opt.seeds, sweep, [het, slo, capture](const exp::SweepPoint& p) {
        ScenarioSpec spec = make_spec(p.seed, het);
        spec.slo = slo;
        return run_spec(spec, capture);
      });

  FuzzReport report;
  report.seeds_run = results.size();
  if (capture) report.registry = std::make_shared<obs::Registry>();
  metrics::Digest summary;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SeedRunResult& r = results[i];
    summary.add_u64(r.seed);
    summary.add_u64(r.digest);
    if (capture && r.registry != nullptr) {
      report.registry->merge(*r.registry);
    }
    report.total_events += r.events;
    report.total_transitions += r.transitions;
    report.total_checks += r.checks;
    report.total_completed += r.jobs_completed;
    report.total_abandoned += r.jobs_abandoned;
    report.total_tasks_killed += r.tasks_killed;
    if (!r.ok) {
      report.failing_indices.push_back(i);
      report.failures.push_back(r);
    }
  }
  report.summary_digest = summary.value();
  return report;
}

std::string to_text(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << std::setprecision(17);
  // Bools print as 1 and 0 (the stream's default), enums as their number.
  for_each_field(spec, [&out](const char* key, const auto& value) {
    out << key << '=';
    if constexpr (std::is_enum_v<std::decay_t<decltype(value)>>) {
      out << static_cast<int>(value) << '\n';
    } else {
      out << value << '\n';
    }
  });
  return out.str();
}

ScenarioSpec from_text(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t eq = line.find('=', start);
    if (eq == std::string::npos) {
      throw std::invalid_argument("repro line " + std::to_string(line_no) +
                                  ": expected key=value, got '" + line + "'");
    }
    const std::string key = line.substr(start, eq - start);
    const std::string value = line.substr(eq + 1);
    // Unknown keys are ignored for forward compatibility.
    bool ok = true;
    for_each_field(spec, [&](const char* name, auto& field) {
      if (key == name) ok = parse_value(value, field);
    });
    try {
      if (ok && key == "slo") (void)sched::parse_engine_slo_specs(value);
    } catch (const std::invalid_argument&) {
      ok = false;
    }
    if (ok && key == "policy") {
      const std::vector<std::string> policies = sched::all_policy_names();
      ok = std::find(policies.begin(), policies.end(), value) !=
           policies.end();
    }
    // Empty runs unscored; anything else must name a scoring policy, which
    // score_policy_from_string would otherwise read as kNone.
    if (ok && key == "score_policy" && !value.empty()) {
      ok = sched::to_string(sched::score_policy_from_string(value)) == value;
    }
    if (!ok) {
      throw std::invalid_argument("repro line " + std::to_string(line_no) +
                                  ": malformed value for '" + key + "'");
    }
  }
  return spec;
}

}  // namespace mcs::check
