// End-to-end benchmark of the simulator: three workloads driven through the
// library's public API, checked for correct output, and timed.
//
//   mcs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--expect-digest HEX]
//
// A run repeats rounds of a fixed amount of work, each built from its own
// substream of --seed, until S seconds have passed, then prints one JSON
// line: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. README.md in this directory explains the workloads, the
// metrics and the layer map.
//
// Every op must retire all its jobs (and pass the oracle, in fuzz_batch);
// with --expect-digest round 0's digest must equal the pinned value. With
// --trace 1 each untraced round is followed by a traced one on the same
// inputs, which must reproduce the same digests op by op: the spans do not
// change the simulation.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/fuzz.hpp"
#include "exp/sweep.hpp"
#include "metrics/stats.hpp"
#include "obs/report.hpp"
#include "obs/slo.hpp"
#include "parallel/thread_pool.hpp"
#include "sched/engine.hpp"
#include "sched/portfolio.hpp"
#include "trace.hpp"
#include "workload/trace.hpp"

namespace perfbench {
namespace {

using namespace mcs;

double to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Process CPU time (user + system, all threads) in seconds.
double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Result of one op: one simulation, or one fuzz scenario.
struct OpResult {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t traced_ns = 0;  ///< the op's root-span duration (traced pass)
  std::thread::id thread;
  bool ok = true;
  std::uint64_t digest = 0;
  std::uint64_t jobs_retired = 0;  ///< completed + abandoned
  std::size_t policy_slot = kPortfolioSlot;
  // Layer counts.
  std::uint64_t events = 0;
  std::uint64_t tasks_started = 0;
  std::uint64_t tasks_killed = 0;
  std::uint64_t jobs_abandoned = 0;
  std::uint64_t oracle_checks = 0;
  std::uint64_t transitions = 0;
  // Workload-specific output.
  std::array<double, 5> row{};  ///< policy_grid: exp_scheduling's digest row
  std::uint64_t seed = 0;       ///< fuzz_batch: scenario seed
  std::shared_ptr<obs::Registry> registry;  ///< fuzz_batch: engine registry
};

/// Output of the timed step after the sweep (fuzz_batch's report).
struct RoundTail {
  std::uint64_t report_digest = 0;
  std::size_t report_bytes = 0;
};

std::uint64_t counter(const obs::Registry& r, const char* name) {
  const obs::Counter* c = r.find_counter(name);
  return c != nullptr ? c->value() : 0;
}

void read_engine_counts(const sched::ExecutionEngine& engine, OpResult& r) {
  r.tasks_started = counter(engine.registry(), "tasks.started");
  r.tasks_killed = counter(engine.registry(), "tasks.killed");
  r.jobs_abandoned = counter(engine.registry(), "jobs.abandoned");
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds one round's inputs from the seed: the set-up phase.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;
  [[nodiscard]] virtual std::size_t ops() const = 0;
  /// Runs op i on the calling pool thread.
  [[nodiscard]] virtual OpResult run_op(std::size_t i, Tracer* tracer) = 0;
  /// Timed step after the sweep.
  virtual RoundTail close_round(const std::vector<OpResult>&, Tracer*) {
    return {};
  }
  /// The round's output digest (not timed).
  [[nodiscard]] virtual std::uint64_t digest(const std::vector<OpResult>& ops,
                                             const RoundTail& tail) const = 0;

  std::uint64_t input_jobs = 0;   ///< jobs the set-up phase generated
  std::uint64_t input_tasks = 0;  ///< tasks the set-up phase generated
};

// --- policy_grid ------------------------------------------------------------
//
// The E5 grid of bench/exp_scheduling.cpp: four regimes x (12 policies +
// portfolio) on the 12-machine floors, one replication. Traces and fleets
// are the same as exp_scheduling's for the same base seed, so at --seed 22
// the round digest equals `exp_scheduling --reps 1 --digest`.

struct Regime {
  workload::TraceConfig trace;
  bool heterogeneous = false;
};

std::vector<Regime> make_regimes() {
  std::vector<Regime> regimes(4);
  {
    workload::TraceConfig& t = regimes[0].trace;  // uniform BoT
    t.job_count = 150;
    t.arrival_rate_per_hour = 700.0;
    t.mean_task_seconds = 60.0;
    t.cv_task_seconds = 0.3;
  }
  {
    workload::TraceConfig& t = regimes[1].trace;  // heavy-tailed BoT
    t.job_count = 150;
    t.arrival_rate_per_hour = 2400.0;
    t.mean_task_seconds = 90.0;
    t.cv_task_seconds = 3.0;
  }
  {
    workload::TraceConfig& t = regimes[2].trace;  // workflows
    t.job_count = 100;
    t.arrival_rate_per_hour = 1200.0;
    t.workflow_fraction = 1.0;
    t.workflow_width = 16;
    t.mean_task_seconds = 90.0;
  }
  {
    workload::TraceConfig& t = regimes[3].trace;  // bursty heterogeneous
    t.job_count = 150;
    t.arrivals = workload::ArrivalKind::kBursty;
    t.arrival_rate_per_hour = 700.0;
    t.mean_task_seconds = 90.0;
    t.cv_task_seconds = 1.5;
    regimes[3].heterogeneous = true;
  }
  return regimes;
}

infra::Datacenter make_grid_dc(bool heterogeneous) {
  infra::Datacenter dc("e5-dc", "eu");
  if (heterogeneous) {
    for (int i = 0; i < 6; ++i) {
      dc.add_machine("slow-" + std::to_string(i),
                     infra::ResourceVector{8, 32, 0}, 0.8, 0);
    }
    for (int i = 0; i < 6; ++i) {
      dc.add_machine("fast-" + std::to_string(i),
                     infra::ResourceVector{8, 32, 0}, 2.0, 1);
    }
  } else {
    dc.add_uniform_racks(2, 6, infra::ResourceVector{8, 32, 0}, 1.0);
  }
  return dc;
}

class PolicyGrid final : public Workload {
 public:
  PolicyGrid()
      : regimes_(make_regimes()), policies_(sched::all_policy_names()) {}

  void setup(std::uint64_t seed, Tracer* tracer) override {
    traces_.clear();
    input_jobs = input_tasks = 0;
    for (std::size_t g = 0; g < regimes_.size(); ++g) {
      for (std::size_t r = 0; r < kReps; ++r) {
        sim::Rng rng(exp::substream_seed(exp::substream_seed(seed, g), r));
        Span span(tracer, Layer::kWorkload);
        traces_.push_back(workload::generate_trace(regimes_[g].trace, rng));
      }
    }
    for (const auto& trace : traces_) {
      input_jobs += trace.size();
      for (const workload::Job& j : trace) input_tasks += j.tasks.size();
    }
    dcs_.clear();
    dcs_.reserve(ops());
    for (std::size_t i = 0; i < ops(); ++i) {
      dcs_.push_back(make_grid_dc(regimes_[regime_of(i)].heterogeneous));
    }
  }

  [[nodiscard]] std::size_t ops() const override {
    return regimes_.size() * kReps * kRows;
  }

  [[nodiscard]] OpResult run_op(std::size_t i, Tracer* tracer) override {
    const std::size_t slot = i % kRows;  // kPortfolioSlot = the portfolio
    const std::vector<workload::Job>& jobs = traces_[i / kRows];
    infra::Datacenter& dc = dcs_[i];
    sim::Simulator sim;
    std::unique_ptr<sched::AllocationPolicy> policy =
        slot == kPortfolioSlot ? sched::make_fcfs()
                               : sched::make_policy(policies_[slot]);
    if (tracer != nullptr) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), *tracer, slot);
    }
    sched::ExecutionEngine engine(sim, dc, std::move(policy));
    std::optional<CallbackHook> hook;
    if (tracer != nullptr) sim.set_hook(&hook.emplace(*tracer));
    std::vector<workload::Job> copy = jobs;
    {
      Span span(tracer, Layer::kSubmit);
      engine.submit_all(std::move(copy));
    }
    std::optional<sched::PortfolioScheduler> portfolio;
    if (slot == kPortfolioSlot) {
      portfolio.emplace(sim, dc, engine, sched::default_portfolio(),
                        30 * sim::kSecond);
      portfolio->start();
    }
    {
      Span span(tracer, Layer::kSim);
      sim.run_until();
    }
    sim.set_hook(nullptr);
    const sched::RunResult rr = sched::summarize_run(engine, dc);

    OpResult r;
    r.policy_slot = slot;
    r.jobs_retired = rr.jobs.size();
    r.ok = rr.jobs.size() == jobs.size();
    r.events = sim.executed();
    read_engine_counts(engine, r);
    r.row = {rr.mean_slowdown, rr.p95_slowdown, rr.mean_wait_seconds,
             rr.makespan_seconds,
             portfolio ? static_cast<double>(portfolio->switches()) : 0.0};
    metrics::Digest d;
    for (double v : r.row) d.add_double(v);
    r.digest = d.value();
    return r;
  }

  [[nodiscard]] std::uint64_t digest(const std::vector<OpResult>& ops,
                                     const RoundTail&) const override {
    // exp_scheduling's fold: one child digest per (regime, rep) cell over
    // its rows in policy order, merged in flat grid order.
    metrics::Digest digest;
    for (std::size_t cell = 0; cell * kRows < ops.size(); ++cell) {
      metrics::Digest d;
      for (std::size_t k = 0; k < kRows; ++k) {
        for (double v : ops[cell * kRows + k].row) d.add_double(v);
      }
      digest.merge(d);
    }
    return digest.value();
  }

 private:
  static constexpr std::size_t kReps = 1;
  static constexpr std::size_t kRows = kPolicySlots;  // 12 policies + portfolio
  [[nodiscard]] static std::size_t regime_of(std::size_t op) {
    return op / kRows / kReps;
  }

  std::vector<Regime> regimes_;
  std::vector<std::string> policies_;
  std::vector<std::vector<workload::Job>> traces_;  ///< [regime * kReps + rep]
  std::vector<infra::Datacenter> dcs_;              ///< one fresh fleet per op
};

// --- fleet_stream -----------------------------------------------------------
//
// The BM_EngineThroughput_1M streaming shape (bench/micro_sim.cpp) at 64Ki
// machines: single-task quarter-core jobs of 30-90 s work arrive in waves
// of 1024 every 120 simulated seconds, FCFS, series sampling off. One op is
// one whole simulation of 512Ki jobs: waves never overlap, so every wave
// looks alike, and a run of tens of seconds holds enough ops for medians.

class FleetStream final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer* tracer) override {
    {
      Span span(tracer, Layer::kWorkload);
      sim::Rng rng(exp::substream_seed(seed, 0));
      work_.resize(kJobs);
      for (double& w : work_) w = rng.uniform(30.0, 90.0);
    }
    input_jobs = input_tasks = kJobs;
    dc_.reset();  // free the previous round's fleet before building this one
    dc_ = std::make_unique<infra::Datacenter>("fleet", "eu");
    dc_->add_uniform_racks(kMachines / kPerRack, kPerRack,
                           infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
  }

  [[nodiscard]] std::size_t ops() const override { return 1; }

  [[nodiscard]] OpResult run_op(std::size_t, Tracer* tracer) override {
    sim::Simulator sim;
    sched::EngineConfig config;
    // With series sampling on, each arrival and finish costs O(machines)
    // and that would hide every other layer (see README.md).
    config.record_series = false;
    std::unique_ptr<sched::AllocationPolicy> policy = sched::make_fcfs();
    if (tracer != nullptr) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), *tracer, 0);
    }
    sched::ExecutionEngine engine(sim, *dc_, std::move(policy), config);
    sim.reserve_events(kWave * 4);
    std::optional<CallbackHook> hook;
    if (tracer != nullptr) sim.set_hook(&hook.emplace(*tracer));
    Feeder feeder{sim, engine, work_, tracer};
    sim.schedule_at(0, [&feeder] { feeder.pump(); });
    {
      Span span(tracer, Layer::kSim);
      sim.run_until();
    }
    sim.set_hook(nullptr);

    OpResult r;
    r.policy_slot = 0;  // fcfs
    r.jobs_retired = engine.jobs_completed();
    r.ok = engine.jobs_completed() == kJobs && engine.all_done();
    r.events = sim.executed();
    read_engine_counts(engine, r);
    metrics::Digest d;
    d.add_u64(r.events);
    d.add_u64(static_cast<std::uint64_t>(sim.now()));
    d.add_u64(r.jobs_retired);
    std::uint64_t finish_sum = 0;
    std::uint64_t finish_mix = 0;
    for (const sched::JobStats& j : engine.completed()) {
      finish_sum += static_cast<std::uint64_t>(j.finish);
      finish_mix += static_cast<std::uint64_t>(j.finish) * (j.id | 1);
    }
    d.add_u64(finish_sum);
    d.add_u64(finish_mix);
    engine.registry().fold_digest(d);
    r.digest = d.value();
    return r;
  }

  [[nodiscard]] std::uint64_t digest(const std::vector<OpResult>& ops,
                                     const RoundTail&) const override {
    return ops.front().digest;
  }

 private:
  static constexpr std::size_t kJobs = std::size_t{1} << 19;
  static constexpr std::size_t kMachines = 65536;
  static constexpr std::size_t kPerRack = 1024;
  static constexpr std::size_t kWave = 1024;

  /// Submits one wave per call and re-arms itself 120 s later.
  struct Feeder {
    sim::Simulator& sim;
    sched::ExecutionEngine& engine;
    const std::vector<double>& work;
    Tracer* tracer;
    std::size_t submitted = 0;
    std::vector<workload::Job> wave{};

    void pump() {
      const std::size_t n = std::min(kWave, work.size() - submitted);
      {
        Span span(tracer, Layer::kBench);  // building the jobs is harness work
        wave.clear();
        for (std::size_t i = 0; i < n; ++i) {
          workload::Job j;
          j.id = submitted + i + 1;
          j.user = "u";
          j.submit_time = sim.now();
          workload::Task t;
          t.work_seconds = work[submitted + i];
          t.demand = infra::ResourceVector{0.25, 1.0, 0.0};
          j.tasks.push_back(std::move(t));
          wave.push_back(std::move(j));
        }
      }
      {
        Span span(tracer, Layer::kSubmit);
        for (workload::Job& j : wave) engine.submit(std::move(j));
      }
      submitted += n;
      if (submitted < work.size()) {
        sim.schedule_after(120 * sim::kSecond, [this] { pump(); });
      }
    }
  };

  std::vector<double> work_;
  std::unique_ptr<infra::Datacenter> dc_;
};

// --- fuzz_batch -------------------------------------------------------------
//
// mcs_check's --het batch with an SLO spec on every scenario and registry
// capture, ending in one mcs-report-v1 JSON build. One op is one scenario
// under the invariant oracle. The summary digest (printed to stderr) equals
// `mcs_check --seeds <n> --base <seed> --het --slo all:300:0.9 --digest`.

class FuzzBatch final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer* tracer) override {
    Span span(tracer, Layer::kCheck);
    specs_.clear();
    specs_.reserve(kSeeds);
    for (std::size_t i = 0; i < kSeeds; ++i) {
      check::ScenarioSpec spec =
          check::make_spec(check::seed_for_index(seed, i), /*het=*/true);
      spec.slo = kSlo;
      specs_.push_back(std::move(spec));
    }
    slo_ = obs::parse_slo_specs(kSlo);
  }

  [[nodiscard]] std::size_t ops() const override { return kSeeds; }

  [[nodiscard]] OpResult run_op(std::size_t i, Tracer* tracer) override {
    check::SeedRunResult res;
    {
      Span span(tracer, Layer::kCheck);
      res = check::run_spec(specs_[i], /*capture_registry=*/true);
    }
    OpResult r;
    r.seed = res.seed;
    r.digest = res.digest;
    r.jobs_retired = res.jobs_completed + res.jobs_abandoned;
    r.ok = res.ok && r.jobs_retired == res.jobs_submitted &&
           res.registry != nullptr;
    r.events = res.events;
    r.transitions = res.transitions;
    r.oracle_checks = res.checks;
    r.tasks_killed = res.tasks_killed;
    r.jobs_abandoned = res.jobs_abandoned;
    if (res.registry != nullptr) {
      r.tasks_started = counter(*res.registry, "tasks.started");
    }
    r.registry = std::move(res.registry);
    return r;
  }

  RoundTail close_round(const std::vector<OpResult>& ops,
                        Tracer* tracer) override {
    Span span(tracer, Layer::kObs);
    obs::Registry merged;
    for (const OpResult& r : ops) {
      if (r.registry != nullptr) merged.merge(*r.registry);
    }
    obs::ReportInputs in;
    in.registry = &merged;
    in.slo = &slo_;
    in.cells = ops.size();
    std::ostringstream out;
    obs::write_report_json(out, in);
    const std::string json = out.str();
    metrics::Digest d;
    d.add_bytes(json.data(), json.size());
    return RoundTail{d.value(), json.size()};
  }

  [[nodiscard]] std::uint64_t digest(const std::vector<OpResult>& ops,
                                     const RoundTail& tail) const override {
    metrics::Digest summary;  // run_fuzz's batch summary
    for (const OpResult& r : ops) {
      summary.add_u64(r.seed);
      summary.add_u64(r.digest);
    }
    if (!printed_summary_) {
      std::cerr << "fuzz_batch: mcs_check summary digest "
                << metrics::hex16(summary.value()) << "\n";
      printed_summary_ = true;
    }
    metrics::Digest d;
    d.add_u64(summary.value());
    d.add_u64(tail.report_digest);
    return d.value();
  }

 private:
  static constexpr std::size_t kSeeds = 1000;
  static constexpr const char* kSlo = "all:300:0.9";
  std::vector<check::ScenarioSpec> specs_;
  std::vector<obs::SloSpec> slo_;
  mutable bool printed_summary_ = false;
};

// --- rounds -----------------------------------------------------------------

struct Round {
  double setup_s = 0.0;
  double timed_s = 0.0;  ///< sweep + finish: the timed phase
  double cpu_s = 0.0;    ///< process CPU time of the timed phase
  std::int64_t round_ns = 0;  ///< traced: root span (set-up through checks)
  std::int64_t sweep_ns = 0;  ///< traced: the sweep span
  std::size_t busy_threads = 1;  ///< threads that could run ops at once
  std::uint64_t input_jobs = 0;
  std::uint64_t input_tasks = 0;
  std::uint64_t digest = 0;
  RoundTail tail;
  std::vector<OpResult> ops;
};

Round measure_round(Workload& w, std::uint64_t seed, parallel::ThreadPool& pool,
                std::size_t pool_threads, Tracer* tracer) {
  Round round;
  ThreadLedger* ledger = tracer != nullptr ? &tracer->local() : nullptr;
  if (ledger != nullptr) ledger->begin(Layer::kBench);
  const std::int64_t t0 = wall_ns();
  w.setup(seed, tracer);
  const std::int64_t t1 = wall_ns();
  round.input_jobs = w.input_jobs;
  round.input_tasks = w.input_tasks;
  const double c1 = cpu_seconds();

  if (ledger != nullptr) ledger->begin(Layer::kExp);
  exp::SweepOptions opt;
  opt.pool = &pool;
  round.ops = exp::run_sweep<OpResult>(
      w.ops(), opt, [&w, tracer](const exp::SweepPoint& p) {
        ThreadLedger* op_ledger =
            tracer != nullptr ? &tracer->local() : nullptr;
        if (op_ledger != nullptr) op_ledger->begin(Layer::kBench, true);
        const std::int64_t start = wall_ns();
        OpResult r = w.run_op(p.scenario, tracer);
        r.end_ns = wall_ns();
        r.start_ns = start;
        r.thread = std::this_thread::get_id();
        if (op_ledger != nullptr) r.traced_ns = op_ledger->end();
        return r;
      });
  if (ledger != nullptr) {
    round.sweep_ns = ledger->end();
    // Thread time of the sweep that ran no op is the sweep's own cost.
    round.busy_threads = std::min(pool_threads, w.ops());
    std::int64_t op_ns = 0;
    for (const OpResult& r : round.ops) op_ns += r.traced_ns;
    tracer->add_idle(static_cast<std::int64_t>(round.busy_threads - 1) *
                         round.sweep_ns -
                     op_ns);
  }
  round.tail = w.close_round(round.ops, tracer);
  const std::int64_t t3 = wall_ns();
  round.cpu_s = cpu_seconds() - c1;
  round.setup_s = to_s(t1 - t0);
  round.timed_s = to_s(t3 - t1);
  round.digest = w.digest(round.ops, round.tail);
  for (OpResult& r : round.ops) r.registry.reset();  // the report holds them
  if (ledger != nullptr) round.round_ns = ledger->end();
  return round;
}

/// Correctness bookkeeping across all rounds of a run.
class Verifier {
 public:
  /// Checks one round and counts its failed ops. Every op must succeed;
  /// `expected` pins the round digest; a traced round must reproduce its
  /// untraced `twin`, op by op.
  void check(const Round& r, const std::uint64_t* expected,
             const Round* twin) {
    std::size_t failed = 0;
    for (std::size_t i = 0; i < r.ops.size(); ++i) {
      if (!r.ops[i].ok ||
          (twin != nullptr && r.ops[i].digest != twin->ops[i].digest)) {
        ++failed;
      }
    }
    if ((expected != nullptr && r.digest != *expected) ||
        (twin != nullptr && r.digest != twin->digest)) {
      std::cerr << "digest mismatch: got " << metrics::hex16(r.digest)
                << "\n";
      failed = r.ops.size();  // every op fed the wrong output
    }
    attempted_ += r.ops.size();
    failed_ += failed;
  }

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// --- output -----------------------------------------------------------------

class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    rows_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  void print(std::ostream& out, bool correct, std::size_t attempted,
             std::size_t failed) const {
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      char buf[64];
      const auto res = std::to_chars(buf, buf + sizeof(buf), rows_[i].value);
      out << (i == 0 ? "" : ", ") << "\"" << rows_[i].name
          << "\": {\"value\": " << std::string(buf, res.ptr)
          << ", \"unit\": \"" << rows_[i].unit << "\"}";
    }
    out << "}}\n";
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Row> rows_;
};

void add_end_to_end(Metrics& m, const std::vector<Round>& rounds,
                    double rss_mib, std::size_t attempted,
                    std::size_t failed) {
  std::vector<double> rate, cpu, setup, op_ms;
  for (const Round& r : rounds) {
    std::uint64_t jobs = 0;
    for (const OpResult& op : r.ops) {
      jobs += op.jobs_retired;
      op_ms.push_back(static_cast<double>(op.end_ns - op.start_ns) * 1e-6);
    }
    rate.push_back(ratio(static_cast<double>(jobs), r.timed_s));
    cpu.push_back(r.cpu_s);
    setup.push_back(r.setup_s);
  }
  m.put("sim_jobs_per_s", median(rate), "jobs/s");
  m.put("cpu_s", median(cpu), "s");
  m.put("setup_s", median(setup), "s");
  m.put("peak_rss_mib", rss_mib, "MiB");
  m.put("op_ms_p50", quantile(op_ms, 0.5), "ms");
  m.put("op_ms_p90", quantile(op_ms, 0.9), "ms");
  const double failed_frac =
      ratio(static_cast<double>(failed), static_cast<double>(attempted));
  m.put("ok_frac", 1.0 - failed_frac, "ratio");
}

/// Sums of one round's per-op layer counts.
struct OpCounts {
  std::uint64_t events = 0, started = 0, killed = 0, abandoned = 0;
  std::uint64_t checks = 0, transitions = 0, started_fixed = 0;
};

OpCounts count_ops(const Round& r) {
  OpCounts c;
  for (const OpResult& op : r.ops) {
    c.events += op.events;
    c.started += op.tasks_started;
    c.killed += op.tasks_killed;
    c.abandoned += op.jobs_abandoned;
    c.checks += op.oracle_checks;
    c.transitions += op.transitions;
    if (op.policy_slot < kPortfolioSlot) c.started_fixed += op.tasks_started;
  }
  return c;
}

/// Per-layer metrics of the traced rounds. Times are means per traced
/// round, and the layers' self times plus trace.unattributed_s sum to
/// trace.thread_s; returns false if that identity does not hold exactly (in
/// nanoseconds). Counts are those of round 0 (`first` holds the ledger as it
/// stood after it), so they are exact and depend on the seed only.
bool add_per_layer(Metrics& m, const std::vector<Round>& traced,
                   const std::vector<Round>& plain, const Tracer& tracer,
                   const ThreadLedger& first, std::size_t pool_threads) {
  const ThreadLedger t = tracer.total();
  const double n = static_cast<double>(traced.size());
  auto self_s = [&](Layer l) {
    return to_s(t.self_ns[static_cast<std::size_t>(l)]) / n;
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  std::uint64_t all_events = 0;
  double efficiency = 0.0, straggler = 0.0, threads = 0.0;
  double traced_timed = 0.0, plain_timed = 0.0;
  std::int64_t thread_ns = 0;
  for (const Round& r : traced) {
    std::int64_t busy = 0, last_start = 0, end = 0;
    std::vector<std::thread::id> seen;
    for (const OpResult& op : r.ops) {
      all_events += op.events;
      busy += op.end_ns - op.start_ns;
      last_start = std::max(last_start, op.start_ns);
      end = std::max(end, op.end_ns);
      if (std::find(seen.begin(), seen.end(), op.thread) == seen.end()) {
        seen.push_back(op.thread);
      }
    }
    efficiency += ratio(static_cast<double>(busy),
                        static_cast<double>(r.sweep_ns) *
                            static_cast<double>(pool_threads));
    straggler += to_s(end - last_start);
    threads += static_cast<double>(seen.size());
    thread_ns += r.round_ns +
                 static_cast<std::int64_t>(r.busy_threads - 1) * r.sweep_ns;
    traced_timed += r.timed_s;
  }
  for (const Round& r : plain) plain_timed += r.timed_s;

  std::int64_t decide_ns = 0;
  std::uint64_t calls = 0, scanned = 0, empty = 0, proposed_fixed = 0;
  for (std::size_t s = 0; s < kPolicySlots; ++s) {
    decide_ns += t.decide_ns[s];
    calls += first.decide_calls[s];
    scanned += first.ready_scanned[s];
    empty += first.empty_calls[s];
    if (s < kPortfolioSlot) proposed_fixed += first.proposed[s];
  }
  const Round& r0 = traced.front();
  const OpCounts c = count_ops(r0);

  const std::int64_t sim_ns = t.self_ns[static_cast<std::size_t>(Layer::kSim)];
  m.put("sim.events", count(c.events), "count");
  m.put("sim.self_s", self_s(Layer::kSim), "s");
  m.put("sim.ns_per_event",
        ratio(static_cast<double>(sim_ns), count(all_events)), "ns");
  m.put("sched.engine.self_s", self_s(Layer::kEngine), "s");
  m.put("sched.engine.submit_s", self_s(Layer::kSubmit), "s");
  m.put("sched.tasks_started", count(c.started), "count");
  m.put("sched.tasks_killed", count(c.killed), "count");
  m.put("sched.jobs_abandoned", count(c.abandoned), "count");
  m.put("sched.policy.decide_s", to_s(decide_ns) / n, "s");
  const std::vector<std::string> names = sched::all_policy_names();
  for (std::size_t s = 0; s < names.size(); ++s) {
    m.put("sched.policy." + names[s] + ".decide_s", to_s(t.decide_ns[s]) / n,
          "s");
  }
  m.put("sched.policy.decide_calls", count(calls), "count");
  m.put("sched.policy.ready_scanned", count(scanned), "count");
  m.put("sched.policy.empty_call_ratio", ratio(count(empty), count(calls)),
        "ratio");
  m.put("sched.policy.accept_ratio",
        ratio(count(c.started_fixed), count(proposed_fixed)), "ratio");
  m.put("workload.gen_s", self_s(Layer::kWorkload), "s");
  m.put("workload.jobs", count(r0.input_jobs), "count");
  m.put("workload.tasks", count(r0.input_tasks), "count");
  m.put("exp.ops", count(r0.ops.size()), "count");
  m.put("exp.self_s", self_s(Layer::kExp), "s");
  m.put("exp.efficiency", efficiency / n, "ratio");
  m.put("exp.straggler_s", straggler / n, "s");
  m.put("parallel.threads", threads / n, "threads");
  m.put("check.self_s", self_s(Layer::kCheck), "s");
  m.put("check.oracle_checks", count(c.checks), "count");
  m.put("check.transitions", count(c.transitions), "count");
  m.put("failures.tasks_killed", count(c.killed), "count");
  m.put("obs.report_s", self_s(Layer::kObs), "s");
  m.put("obs.report_bytes", count(r0.tail.report_bytes), "bytes");
  m.put("trace.thread_s", to_s(thread_ns) / n, "s");
  m.put("trace.unattributed_s", self_s(Layer::kBench), "s");
  m.put("trace.overhead_ratio", ratio(traced_timed, plain_timed), "ratio");

  std::int64_t self_sum = 0;
  for (std::int64_t v : t.self_ns) self_sum += v;
  if (self_sum != thread_ns) {
    std::cerr << "trace identity broken: layers sum to " << self_sum
              << " ns, thread time is " << thread_ns << " ns\n";
    return false;
  }
  return true;
}

// --- command line and run loop ----------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::uint64_t> expect;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (arg == "--expect-digest") {
      a.expect = std::stoull(v, nullptr, 16);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "policy_grid") return std::make_unique<PolicyGrid>();
  if (name == "fleet_stream") return std::make_unique<FleetStream>();
  if (name == "fuzz_batch") return std::make_unique<FuzzBatch>();
  throw std::invalid_argument("unknown workload " + name);
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make_workload(a.workload);
  // ThreadPool(n) runs n workers and the calling thread runs ops too, so
  // the runnable threads are n + 1. One CPU is left to the rest of the
  // system (the parent process, the kernel): n = cpus - 2, so 3 runnable
  // threads on a 4-CPU box.
  const std::size_t cpus = online_cpus();
  parallel::ThreadPool pool(cpus > 2 ? cpus - 2 : 1);
  const std::size_t pool_threads = pool.thread_count() + 1;
  std::unique_ptr<Tracer> tracer =
      a.trace ? std::make_unique<Tracer>() : nullptr;
  ThreadLedger first;  // the tracer's totals after traced round 0
  Verifier verifier;

  // Round k draws fresh inputs, so a run averages over many of them; round
  // 0 uses the seed itself and is the one whose digest is pinned. A round
  // starts only if it should end before the deadline, judged by the last.
  const std::int64_t deadline =
      wall_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
  std::vector<Round> plain, traced;
  double rss_mib = 0.0;
  std::int64_t last_ns = 0;
  for (std::size_t k = 0; k == 0 || wall_ns() + last_ns <= deadline; ++k) {
    const std::int64_t start = wall_ns();
    const std::uint64_t seed =
        k == 0 ? a.seed : exp::substream_seed(a.seed, k);
    const std::uint64_t* expected =
        k == 0 && a.expect ? &*a.expect : nullptr;
    plain.push_back(measure_round(*w, seed, pool, pool_threads, nullptr));
    verifier.check(plain.back(), expected, nullptr);
    if (tracer != nullptr) {
      traced.push_back(
          measure_round(*w, seed, pool, pool_threads, tracer.get()));
      verifier.check(traced.back(), expected, &plain.back());
      if (k == 0) first = tracer->total();
    }
    // Peak memory of one round in a fresh process. Later rounds can only
    // add the allocator's leftovers from earlier ones.
    if (k == 0) rss_mib = peak_rss_mib();
    last_ns = wall_ns() - start;
  }

  Metrics m;
  bool identity = true;
  if (tracer != nullptr) {
    identity = add_per_layer(m, traced, plain, *tracer, first, pool_threads);
  } else {
    add_end_to_end(m, plain, rss_mib, verifier.attempted(), verifier.failed());
  }
  std::cerr << a.workload << ": seed " << a.seed << ", round-0 digest "
            << metrics::hex16(plain.front().digest) << ", " << plain.size()
            << " rounds, " << verifier.attempted() << " ops ("
            << verifier.failed() << " failed), " << pool_threads
            << " runnable threads\n";
  m.print(std::cout, verifier.failed() == 0 && identity, verifier.attempted(),
          verifier.failed());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mcs_perfbench: " << e.what() << "\n"
              << "usage: mcs_perfbench --workload policy_grid|fleet_stream|"
                 "fuzz_batch --seed N --seconds S --trace 0|1 "
                 "[--expect-digest HEX]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "mcs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
