// Regenerates Table 4 of the paper ("Selected use-cases for MCS") by
// *running* a miniature of all six use-cases end-to-end — each row is
// backed by an actual simulation rather than prose. The full versions
// live in examples/.
#include <chrono>
#include <iostream>

#include "core/registry.hpp"
#include "faas/composition.hpp"
#include "failures/failure_model.hpp"
#include "gaming/virtual_world.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "metrics/report.hpp"
#include "sched/engine.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mcs;

std::string usecase_61_datacenter() {
  infra::Datacenter dc("dc", "eu");
  dc.add_uniform_racks(1, 8, infra::ResourceVector{8, 32, 0}, 1.0);
  sim::Rng rng(1);
  workload::TraceConfig t;
  t.job_count = 60;
  t.arrival_rate_per_hour = 600.0;
  auto r = sched::run_workload(dc, workload::generate_trace(t, rng),
                               sched::make_easy_backfilling());
  return "60 jobs, mean slowdown " + metrics::Table::num(r.mean_slowdown) +
         ", util " + metrics::Table::pct(r.utilization);
}

std::string usecase_65_serverless() {
  infra::Datacenter dc("faas", "eu");
  dc.add_uniform_racks(1, 4, infra::ResourceVector{8, 16, 0}, 1.0);
  sim::Simulator sim;
  faas::FaasPlatform platform(sim, dc, {}, sim::Rng(2));
  faas::FunctionSpec f;
  f.name = "fn";
  f.mean_exec_seconds = 0.1;
  platform.deploy(f);
  faas::CompositionEngine engine(sim, platform);
  const auto wf = faas::Composition::sequence(
      {faas::Composition::invoke("fn"), faas::Composition::invoke("fn")});
  double latency = 0.0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(i * sim::kSecond, [&] {
      engine.run(wf, [&](const faas::WorkflowResult& r) {
        latency = r.latency_seconds;
      });
    });
  }
  sim.run_until();
  return "50 workflows, " +
         std::to_string(platform.stats("fn").cold_starts) +
         " cold starts, last latency " + metrics::Table::num(latency, 2) + " s";
}

std::string usecase_66_graph() {
  sim::Rng rng(3);
  const auto g = graph::rmat(14, 8, rng);
  const auto t0 = std::chrono::steady_clock::now();
  const auto pr = graph::pagerank(g, 10);
  const auto dt = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  const double evps =
      static_cast<double>(g.arc_count()) * 10.0 / std::max(dt, 1e-9);
  return std::to_string(g.vertex_count()) + " vertices, PageRank at " +
         metrics::Table::num(evps / 1e6, 1) + " M edges/s";
}

std::string usecase_62_science() {
  infra::Datacenter dc("grid", "eu");
  dc.add_uniform_racks(2, 8, infra::ResourceVector{8, 32, 0}, 1.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_heft());
  sim::Rng rng(4);
  workload::WorkflowSizing sizing;
  for (workload::JobId i = 0; i < 20; ++i) {
    engine.submit(workload::make_montage_like(i, 12, sizing, rng));
  }
  failures::FailureModelConfig fc;
  fc.mode = failures::CorrelationMode::kSpaceCorrelated;
  fc.failures_per_machine_day = 8.0;
  sim::Rng frng(5);
  auto events = failures::generate_failure_trace(dc, fc, sim::kHour, frng);
  failures::FailureInjector injector(sim, dc, events);
  injector.arm([&](infra::MachineId id) { engine.on_machine_failed(id); },
               [&](infra::MachineId) { engine.kick(); });
  sim.run_until();
  const auto r = sched::summarize_run(engine, dc);
  return "20 Montage workflows under failures: " +
         std::to_string(engine.tasks_killed()) + " tasks killed, " +
         std::to_string(r.abandoned) + " abandoned";
}

std::string usecase_63_gaming() {
  sim::Simulator sim;
  gaming::VirtualWorld world(sim, {}, sim::Rng(6));
  world.join(1500);
  world.start(20 * sim::kMinute);
  sim.run_until();
  return "1500 players: peak " +
         metrics::Table::num(world.stats().servers_used.max(), 0) +
         " zone servers, QoS " + metrics::Table::pct(world.stats().qos());
}

std::string usecase_64_banking() {
  infra::Datacenter dc("bank", "eu");
  dc.add_uniform_racks(1, 8, infra::ResourceVector{8, 32, 0}, 1.0);
  sim::Rng rng(7);
  workload::TraceConfig t;
  t.job_count = 80;
  t.arrival_rate_per_hour = 900.0;
  auto r = sched::run_workload(dc, workload::generate_trace(t, rng),
                               sched::make_sjf());
  std::size_t violations = 0;
  for (const auto& j : r.jobs) {
    const core::Sla sla({core::deadline_slo(300.0)});
    if (sla.violations(
            {{core::NfrDimension::kLatency, j.response_seconds()}}) > 0) {
      ++violations;
    }
  }
  return "80 clearing batches, " + std::to_string(violations) +
         " deadline SLO breaches";
}

}  // namespace

int main() {
  metrics::print_banner(std::cout,
                        "Table 4 — Selected use-cases for MCS (executed)");
  metrics::Table table({"Loc.", "Kind", "Description", "Key aspects",
                        "Miniature run result"});
  for (const core::UseCase& u : core::use_cases()) {
    std::string result;
    if (u.section == "6.1") result = usecase_61_datacenter();
    if (u.section == "6.5") result = usecase_65_serverless();
    if (u.section == "6.6") result = usecase_66_graph();
    if (u.section == "6.2") result = usecase_62_science();
    if (u.section == "6.3") result = usecase_63_gaming();
    if (u.section == "6.4") result = usecase_64_banking();
    table.add_row({"§" + u.section, u.endogenous ? "endogenous" : "exogenous",
                   u.description, u.key_aspects, result});
  }
  table.print(std::cout);
  std::cout << "\nFull scenarios: see examples/ (one program per use-case).\n";
  return 0;
}
