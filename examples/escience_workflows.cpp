// e-Science on a federated ecosystem (use-case §6.2): Montage-, LIGO-, and
// Epigenomics-like workflows on two geo-distributed datacenters, with
// correlated failures injected at one site and elastic provisioning
// tracking the bursty demand — the "virtuous cycle" scenario where MCS is
// the instrument behind Big/e-Science.
//
//   $ ./examples/escience_workflows [seed]
#include <cstdint>
#include <iostream>
#include <string_view>

#include "autoscale/autoscaler.hpp"
#include "core/parse.hpp"
#include "failures/failure_model.hpp"
#include "metrics/report.hpp"
#include "sched/engine.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  std::uint64_t seed = 7;
  if (argc > 1 && !core::parse_whole(std::string_view(argv[1]), seed)) {
    std::cerr << "usage: escience_workflows [seed]\n";
    return 2;
  }
  metrics::print_banner(std::cout,
                        "e-Science: workflows on a federated ecosystem");
  metrics::print_kv(std::cout, "seed", std::to_string(seed));

  // A two-site federation (the DAS/Grid'5000 shape [41]).
  infra::Federation fed("escience-grid");
  infra::Datacenter& ams = fed.add_datacenter("ams", "eu-west");
  infra::Datacenter& lyon = fed.add_datacenter("lyon", "eu-central");
  ams.add_uniform_racks(2, 8, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
  lyon.add_uniform_racks(2, 8, infra::ResourceVector{8.0, 32.0, 0.0}, 1.2);
  metrics::print_kv(std::cout, "sites", std::to_string(fed.size()));
  metrics::print_kv(std::cout, "machines", std::to_string(fed.machine_count()));

  // Scientific workflows, bursty submissions (campaign behaviour).
  sim::Rng rng(seed);
  workload::TraceConfig trace;
  trace.job_count = 120;
  trace.arrivals = workload::ArrivalKind::kBursty;
  trace.arrival_rate_per_hour = 240.0;
  trace.workflow_fraction = 1.0;
  trace.workflow_width = 12;
  trace.mean_task_seconds = 40.0;
  auto jobs = workload::generate_trace(trace, rng);

  // Split jobs across sites round-robin (the federation broker).
  std::vector<workload::Job> to_ams, to_lyon;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    (i % 2 == 0 ? to_ams : to_lyon).push_back(jobs[i]);
  }

  // Site 1 (ams): failures strike one rack, space-correlated [26].
  sim::Simulator sim;
  sched::ExecutionEngine ams_engine(sim, ams, sched::make_easy_backfilling());
  sched::ExecutionEngine lyon_engine(sim, lyon, sched::make_heft());
  failures::FailureModelConfig failure_config;
  failure_config.mode = failures::CorrelationMode::kSpaceAndTime;
  failure_config.failures_per_machine_day = 2.0;
  sim::Rng failure_rng(seed + 1);
  auto trace_events = failures::generate_failure_trace(
      ams, failure_config, 12 * sim::kHour, failure_rng);
  failures::FailureInjector injector(sim, ams, trace_events);
  injector.arm(
      [&](infra::MachineId id) { ams_engine.on_machine_failed(id); },
      [&](infra::MachineId) { ams_engine.kick(); });

  ams_engine.submit_all(to_ams);
  lyon_engine.submit_all(to_lyon);
  sim.run_until();

  metrics::Table table({"site", "policy", "jobs", "failures injected",
                        "tasks killed", "mean slowdown", "p95 slowdown",
                        "abandoned"});
  const auto ams_result = sched::summarize_run(ams_engine, ams);
  const auto lyon_result = sched::summarize_run(lyon_engine, lyon);
  table.add_row({"ams (faulty)", "easy-backfill",
                 std::to_string(ams_result.jobs.size()),
                 std::to_string(injector.injected_failures()),
                 std::to_string(ams_engine.tasks_killed()),
                 metrics::Table::num(ams_result.mean_slowdown),
                 metrics::Table::num(ams_result.p95_slowdown),
                 std::to_string(ams_result.abandoned)});
  table.add_row({"lyon (healthy)", "heft",
                 std::to_string(lyon_result.jobs.size()), "0", "0",
                 metrics::Table::num(lyon_result.mean_slowdown),
                 metrics::Table::num(lyon_result.p95_slowdown),
                 std::to_string(lyon_result.abandoned)});
  table.print(std::cout);

  // Democratized science (§6.2): the same campaign on pay-as-you-go
  // elastic resources — what a small lab without a cluster would do.
  metrics::print_banner(std::cout,
                        "Democratized science: elastic pay-as-you-go run");
  infra::Datacenter cloud("cloud", "eu-west");
  cloud.add_uniform_racks(4, 16, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
  autoscale::AutoscaleRunConfig as_config;
  as_config.max_machines = 64;
  as_config.provisioning.price_per_machine_hour = 0.20;
  const auto elastic = autoscale::run_autoscaled(
      cloud, jobs, autoscale::make_autoscaler("plan"), as_config);
  metrics::Table cloud_table({"metric", "value"});
  cloud_table.add_row({"autoscaler", elastic.autoscaler});
  cloud_table.add_row({"jobs completed",
                       std::to_string(elastic.sched.jobs.size())});
  cloud_table.add_row({"mean slowdown",
                       metrics::Table::num(elastic.sched.mean_slowdown)});
  cloud_table.add_row({"avg machines rented",
                       metrics::Table::num(elastic.avg_machines, 1)});
  cloud_table.add_row({"cost [$]", metrics::Table::num(elastic.cost)});
  cloud_table.add_row({"elasticity score",
                       metrics::Table::num(elastic.elasticity_score, 3)});
  cloud_table.print(std::cout);
  return 0;
}
