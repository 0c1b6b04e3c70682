// Quickstart: build a datacenter, generate a workload, schedule it, and
// read the report — the five-minute tour of the library (use-case §6.1,
// and the OpenDC-style entry point of challenge C11).
//
//   $ ./examples/quickstart [seed]
#include <cstdint>
#include <iostream>
#include <string_view>

#include "core/parse.hpp"
#include "metrics/report.hpp"
#include "sched/engine.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  std::uint64_t seed = 42;
  if (argc > 1 && !core::parse_whole(std::string_view(argv[1]), seed)) {
    std::cerr << "usage: quickstart [seed]\n";
    return 2;
  }

  metrics::print_banner(std::cout, "MCS quickstart: a datacenter in five steps");
  metrics::print_kv(std::cout, "seed", std::to_string(seed));

  // 1. Build a datacenter: one rack of 6 machines, 16 cores / 64 GiB each.
  infra::Datacenter dc("quickstart-dc", "eu-west");
  dc.add_uniform_racks(1, 6, infra::ResourceVector{16.0, 64.0, 0.0},
                       /*speed_factor=*/1.0);
  metrics::print_kv(std::cout, "machines", std::to_string(dc.machine_count()));
  metrics::print_kv(std::cout, "total cores",
                    metrics::Table::num(dc.total_capacity().cpu(), 0));

  // 2. Generate a workload: 200 jobs, bursty arrivals, 30% workflows.
  sim::Rng rng(seed);
  workload::TraceConfig trace;
  trace.job_count = 200;
  trace.arrivals = workload::ArrivalKind::kBursty;
  trace.arrival_rate_per_hour = 900.0;
  trace.workflow_fraction = 0.3;
  trace.mean_task_seconds = 90.0;
  trace.cv_task_seconds = 1.5;
  trace.mean_cores_per_task = 2.0;
  auto jobs = workload::generate_trace(trace, rng);
  const auto summary = workload::summarize(jobs);
  metrics::print_kv(std::cout, "jobs", std::to_string(summary.jobs));
  metrics::print_kv(std::cout, "tasks", std::to_string(summary.tasks));
  metrics::print_kv(std::cout, "workflow jobs",
                    std::to_string(summary.workflow_jobs));

  // 3-5. For each allocation policy: simulate, collect, report.
  metrics::Table table({"policy", "mean slowdown", "p95 slowdown",
                        "mean wait [s]", "makespan [s]", "utilization"});
  for (const std::string& name :
       {std::string("fcfs"), std::string("sjf"), std::string("easy-backfill"),
        std::string("heft")}) {
    infra::Datacenter run_dc("quickstart-dc", "eu-west");
    run_dc.add_uniform_racks(1, 6, infra::ResourceVector{16.0, 64.0, 0.0},
                             1.0);
    const auto result =
        sched::run_workload(run_dc, jobs, sched::make_policy(name));
    table.add_row({name, metrics::Table::num(result.mean_slowdown),
                   metrics::Table::num(result.p95_slowdown),
                   metrics::Table::num(result.mean_wait_seconds, 1),
                   metrics::Table::num(result.makespan_seconds, 0),
                   metrics::Table::pct(result.utilization)});
  }
  table.print(std::cout);
  std::cout << "\nNext: examples/escience_workflows, examples/gaming_world,\n"
               "      examples/serverless_pipeline, examples/banking_sla\n";
  return 0;
}
