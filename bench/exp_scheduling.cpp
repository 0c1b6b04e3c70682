// Experiment E5 — allocation-policy sweep and portfolio scheduling
// (challenge C7; Ghit et al. [22], van Beek et al. [112]).
//
// Published shape: no single policy dominates across workload regimes —
// SJF wins mean metrics under heavy-tailed task mixes, FCFS/backfilling
// behave under uniform loads, HEFT wins on heterogeneous machines — and a
// portfolio scheduler tracks whichever fixed policy suits the regime.
//
// Scale-out: `--reps N` fans N independent replications per regime across
// the thread pool (exp::run_sweep). Each replication is its own Simulator
// with a substream-seeded trace; per-(regime, policy) metrics are merged
// through metrics::Accumulator in flat grid order, so the aggregate is
// bit-identical at any MCS_THREADS (checked by the gate.exp_scheduling
// ctest, which also pins the `--digest` line to its golden).
#include <iostream>
#include <memory>
#include <stdexcept>

#include "exp/obs_harness.hpp"
#include "exp/sweep.hpp"
#include "metrics/report.hpp"
#include "metrics/stats.hpp"
#include "sched/engine.hpp"
#include "sched/portfolio.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mcs;

struct Regime {
  std::string name;
  workload::TraceConfig trace;
  bool heterogeneous = false;
};

infra::Datacenter make_dc(bool heterogeneous) {
  infra::Datacenter dc("e5-dc", "eu");
  if (heterogeneous) {
    // Half slow, half fast machines (C4).
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

std::vector<Regime> make_regimes() {
  std::vector<Regime> regimes;
  {
    Regime r;
    r.name = "uniform BoT";
    r.trace.job_count = 150;
    r.trace.arrival_rate_per_hour = 700.0;
    r.trace.mean_task_seconds = 60.0;
    r.trace.cv_task_seconds = 0.3;
    regimes.push_back(r);
  }
  {
    Regime r;
    r.name = "heavy-tailed BoT";
    r.trace.job_count = 150;
    r.trace.arrival_rate_per_hour = 2400.0;
    r.trace.mean_task_seconds = 90.0;
    r.trace.cv_task_seconds = 3.0;
    regimes.push_back(r);
  }
  {
    Regime r;
    r.name = "workflows";
    r.trace.job_count = 100;
    r.trace.arrival_rate_per_hour = 1200.0;
    r.trace.workflow_fraction = 1.0;
    r.trace.workflow_width = 16;
    r.trace.mean_task_seconds = 90.0;
    regimes.push_back(r);
  }
  {
    Regime r;
    r.name = "bursty heterogeneous";
    r.trace.job_count = 150;
    r.trace.arrivals = workload::ArrivalKind::kBursty;
    r.trace.arrival_rate_per_hour = 700.0;
    r.trace.mean_task_seconds = 90.0;
    r.trace.cv_task_seconds = 1.5;
    r.heterogeneous = true;
    regimes.push_back(r);
  }
  return regimes;
}

/// The library's policy list, built once: a policy added there joins E5.
const std::vector<std::string>& policy_names() {
  static const std::vector<std::string> kPolicies = sched::all_policy_names();
  return kPolicies;
}

struct PolicyRow {
  double mean_slowdown = 0.0;
  double p95_slowdown = 0.0;
  double mean_wait_seconds = 0.0;
  double makespan_seconds = 0.0;
  double portfolio_switches = 0.0;  ///< portfolio row only
};

/// One replication: the full policy set + portfolio on one substream trace.
struct CellResult {
  std::vector<PolicyRow> rows;  ///< policy_names() order, then portfolio
  exp::ObsCapture obs;          ///< portfolio run's trace/metrics capture
};

CellResult run_cell(const Regime& regime, const exp::SweepPoint& p,
                    const exp::SweepCli& cli) {
  CellResult cell;
  sim::Rng rng(p.seed);
  const auto jobs = workload::generate_trace(regime.trace, rng);
  for (const std::string& name : policy_names()) {
    auto dc = make_dc(regime.heterogeneous);
    const auto r = sched::run_workload(dc, jobs, sched::make_policy(name));
    PolicyRow row;
    row.mean_slowdown = r.mean_slowdown;
    row.p95_slowdown = r.p95_slowdown;
    row.mean_wait_seconds = r.mean_wait_seconds;
    row.makespan_seconds = r.makespan_seconds;
    cell.rows.push_back(row);
  }
  {
    auto dc = make_dc(regime.heterogeneous);
    sim::Simulator sim;
    exp::CellObs cellobs(cli);
    sched::EngineConfig config;
    // Lifecycle spans ride along with any observability flag; a plain
    // `--digest` run keeps the pinned default-config digests.
    config.lifecycle_spans = cellobs.enabled();
    sched::ExecutionEngine engine(sim, dc, sched::make_fcfs(), config);
    engine.set_tracer(cellobs.tracer());
    engine.set_slo(cellobs.make_slo(engine.registry()));
    engine.submit_all(jobs);
    sched::PortfolioScheduler portfolio(sim, dc, engine,
                                        sched::default_portfolio(),
                                        30 * sim::kSecond);
    portfolio.start();
    sim.run_until();
    cellobs.finalize(sim.now());
    const auto r = sched::summarize_run(engine, dc);
    cell.obs = cellobs.capture(&engine.registry(),
                               p.scenario == 0 && p.rep == 0);
    PolicyRow row;
    row.mean_slowdown = r.mean_slowdown;
    row.p95_slowdown = r.p95_slowdown;
    row.mean_wait_seconds = r.mean_wait_seconds;
    row.makespan_seconds = r.makespan_seconds;
    row.portfolio_switches = static_cast<double>(portfolio.switches());
    cell.rows.push_back(row);
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  exp::SweepCli cli;
  try {
    cli = exp::parse_sweep_cli(argc, argv);
  } catch (const std::invalid_argument& ex) {
    std::cerr << "exp_scheduling: " << ex.what() << "\n";
    return 2;
  }
  const std::uint64_t seed = 22;
  const auto regimes = make_regimes();
  const std::size_t row_count = policy_names().size() + 1;  // + portfolio

  parallel::ThreadPool pool(cli.threads);
  exp::SweepOptions opt;
  opt.reps = cli.reps;
  opt.base_seed = seed;
  opt.pool = &pool;

  const auto cells = exp::run_sweep<CellResult>(
      regimes.size(), opt, [&](const exp::SweepPoint& p) {
        return run_cell(regimes[p.scenario], p, cli);
      });

  // Observability rider: fold per-cell captures in flat grid order so the
  // printed `trace digest` line is bit-identical at any MCS_THREADS (the
  // gate.exp_scheduling contract).
  exp::ObsAggregate obs_agg;
  for (const CellResult& cell : cells) obs_agg.fold(cell.obs);
  if (!obs_agg.report(cli, std::cout)) return 1;

  if (cli.digest) {
    // Per-cell digests merged in flat grid order: bit-identical at any
    // thread count (the gate.exp_scheduling contract).
    metrics::Digest digest;
    for (const CellResult& cell : cells) {
      metrics::Digest d;
      for (const PolicyRow& row : cell.rows) {
        d.add_double(row.mean_slowdown);
        d.add_double(row.p95_slowdown);
        d.add_double(row.mean_wait_seconds);
        d.add_double(row.makespan_seconds);
        d.add_double(row.portfolio_switches);
      }
      digest.merge(d);
    }
    std::cout << digest.hex() << "\n";
    return 0;
  }

  metrics::print_banner(
      std::cout, "E5 — Scheduling policies across regimes + portfolio");
  metrics::print_kv(std::cout, "seed", std::to_string(seed));
  metrics::print_kv(std::cout, "replications", std::to_string(opt.reps));
  metrics::print_kv(std::cout, "threads",
                    std::to_string(pool.thread_count()));

  for (std::size_t s = 0; s < regimes.size(); ++s) {
    metrics::print_banner(std::cout, "Regime: " + regimes[s].name);
    // Merge this regime's replications (flat grid order) per policy.
    std::vector<metrics::Accumulator> slowdown(row_count,
                                               metrics::Accumulator(false));
    std::vector<metrics::Accumulator> p95(row_count,
                                          metrics::Accumulator(false));
    std::vector<metrics::Accumulator> wait(row_count,
                                           metrics::Accumulator(false));
    std::vector<metrics::Accumulator> makespan(row_count,
                                               metrics::Accumulator(false));
    double switches = 0.0;
    for (std::size_t rep = 0; rep < opt.reps; ++rep) {
      const CellResult& cell = cells[s * opt.reps + rep];
      for (std::size_t i = 0; i < row_count; ++i) {
        slowdown[i].add(cell.rows[i].mean_slowdown);
        p95[i].add(cell.rows[i].p95_slowdown);
        wait[i].add(cell.rows[i].mean_wait_seconds);
        makespan[i].add(cell.rows[i].makespan_seconds);
      }
      switches += cell.rows[row_count - 1].portfolio_switches;
    }

    metrics::Table table({"policy", "mean slowdown", "p95 slowdown",
                          "mean wait [s]", "makespan [s]"});
    double best_slowdown = 1e18;
    std::string best_policy;
    for (std::size_t i = 0; i < policy_names().size(); ++i) {
      const std::string& name = policy_names()[i];
      if (slowdown[i].mean() < best_slowdown) {
        best_slowdown = slowdown[i].mean();
        best_policy = name;
      }
      table.add_row({name, metrics::Table::num(slowdown[i].mean()),
                     metrics::Table::num(p95[i].mean()),
                     metrics::Table::num(wait[i].mean(), 1),
                     metrics::Table::num(makespan[i].mean(), 0)});
    }
    const std::size_t pi = row_count - 1;
    table.add_row({"PORTFOLIO (" +
                       std::to_string(static_cast<long long>(switches)) +
                       " switches)",
                   metrics::Table::num(slowdown[pi].mean()),
                   metrics::Table::num(p95[pi].mean()),
                   metrics::Table::num(wait[pi].mean(), 1),
                   metrics::Table::num(makespan[pi].mean(), 0)});
    table.print(std::cout);
    metrics::print_kv(std::cout, "best fixed policy", best_policy);
  }
  std::cout << "\nThe [22]/[112] shape: the winner changes per regime (note\n"
               "SJF on heavy tails, HEFT on the heterogeneous floor), and\n"
               "the portfolio stays near the per-regime winner without\n"
               "knowing the regime in advance.\n";
  return 0;
}
