// The future of banking (use-case §6.4): a regulated workload — payment
// clearing with hard deadlines (PSD2-style), availability floors, and SLA
// penalty accounting — run on a primary datacenter with correlated
// failures, with and without a replica site. Demonstrates NFRs as
// first-class objects (P3): deadline SLOs attach to every job, violations
// are priced, and the replica exists purely to protect the SLA.
//
//   $ ./examples/banking_sla [seed]
#include <cstdint>
#include <iostream>
#include <string_view>

#include "core/nfr.hpp"
#include "core/parse.hpp"
#include "failures/failure_model.hpp"
#include "metrics/report.hpp"
#include "metrics/stats.hpp"
#include "sched/engine.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mcs;

struct BankRun {
  std::size_t jobs = 0;
  std::size_t deadline_violations = 0;
  double penalty = 0.0;
  double p99_response = 0.0;
};

BankRun run_site(std::vector<workload::Job> jobs, bool with_replica,
                 std::uint64_t seed) {
  // Primary site; the replica (if any) absorbs work killed by failures.
  infra::Datacenter primary("bank-primary", "eu-west");
  primary.add_uniform_racks(2, 6, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
  infra::Datacenter replica("bank-replica", "eu-central");
  replica.add_uniform_racks(2, 6, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);

  sim::Simulator sim;
  sched::ExecutionEngine primary_engine(sim, primary, sched::make_sjf());
  sched::ExecutionEngine replica_engine(sim, replica, sched::make_sjf());

  // Space-and-time-correlated failures at the primary (the §2.2 problem).
  failures::FailureModelConfig failure_config;
  failure_config.mode = failures::CorrelationMode::kSpaceAndTime;
  failure_config.failures_per_machine_day = 4.0;
  failure_config.mean_burst_size = 5.0;
  sim::Rng failure_rng(seed);
  auto events = failures::generate_failure_trace(primary, failure_config,
                                                 8 * sim::kHour, failure_rng);
  failures::FailureInjector injector(sim, primary, events);
  injector.arm(
      [&](infra::MachineId id) { primary_engine.on_machine_failed(id); },
      [&](infra::MachineId) { primary_engine.kick(); });

  // Route: odd-indexed jobs to the replica when it participates.
  BankRun out;
  std::vector<const core::Sla*> slas;  // parallel to submitted jobs
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (with_replica && i % 2 == 1) {
      replica_engine.submit(jobs[i]);
    } else {
      primary_engine.submit(jobs[i]);
    }
  }
  sim.run_until();

  metrics::Accumulator responses;
  auto account = [&](const sched::ExecutionEngine& engine) {
    for (const sched::JobStats& j : engine.completed()) {
      ++out.jobs;
      responses.add(j.response_seconds());
      // Clearing deadline: 5 minutes per transaction batch (PSD2-style).
      const core::Sla sla({core::deadline_slo(300.0, /*weight=*/1.0)});
      const std::vector<core::Sla::Observation> obs = {
          {core::NfrDimension::kLatency, j.response_seconds()}};
      const std::size_t violations = sla.violations(obs);
      out.deadline_violations += violations;
      out.penalty += sla.penalty(obs, /*unit_penalty=*/250.0);  // EUR
    }
  };
  account(primary_engine);
  if (with_replica) account(replica_engine);
  if (responses.count() > 0) out.p99_response = responses.quantile(0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 23;
  if (argc > 1 && !core::parse_whole(std::string_view(argv[1]), seed)) {
    std::cerr << "usage: banking_sla [seed]\n";
    return 2;
  }
  metrics::print_banner(std::cout,
                        "Future banking: regulated SLAs under failures");
  metrics::print_kv(std::cout, "seed", std::to_string(seed));
  metrics::print_kv(std::cout, "deadline SLO", "300 s per clearing batch");
  metrics::print_kv(std::cout, "penalty", "EUR 250 per violated objective");

  // Payment clearing batches: many small bags, steady arrivals.
  sim::Rng rng(seed);
  workload::TraceConfig trace;
  trace.job_count = 400;
  trace.arrival_rate_per_hour = 600.0;
  trace.mean_tasks_per_job = 4.0;
  trace.mean_task_seconds = 25.0;
  trace.cv_task_seconds = 0.6;
  const auto jobs = workload::generate_trace(trace, rng);

  const BankRun single = run_site(jobs, /*with_replica=*/false, seed);
  const BankRun replicated = run_site(jobs, /*with_replica=*/true, seed);

  metrics::Table table({"deployment", "batches cleared",
                        "deadline violations", "p99 response [s]",
                        "penalty [EUR]"});
  table.add_row({"primary only", std::to_string(single.jobs),
                 std::to_string(single.deadline_violations),
                 metrics::Table::num(single.p99_response, 1),
                 metrics::Table::num(single.penalty, 0)});
  table.add_row({"primary + replica site", std::to_string(replicated.jobs),
                 std::to_string(replicated.deadline_violations),
                 metrics::Table::num(replicated.p99_response, 1),
                 metrics::Table::num(replicated.penalty, 0)});
  table.print(std::cout);
  std::cout << "\nThe replica halves the exposure to the primary's correlated\n"
               "failure bursts: fewer deadline breaches, lower regulatory\n"
               "penalty — availability bought as an explicit NFR (P3, §6.4).\n";
  return 0;
}
