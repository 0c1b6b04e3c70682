// Cross-module integration and property tests: whole-pipeline scenarios
// that exercise several subsystems together, end-to-end determinism, and
// parameterized invariant sweeps (the "macro-level" testing of challenge
// C17, complementing the per-module "micro-level" suites).
#include <gtest/gtest.h>

#include <optional>

#include "autoscale/autoscaler.hpp"
#include "core/registry.hpp"
#include "failures/failure_model.hpp"
#include "gaming/social.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sched/datacenter_stack.hpp"
#include "sched/engine.hpp"
#include "sched/portfolio.hpp"
#include "workload/trace.hpp"

namespace mcs {
namespace {

// ---- EDF deadline-aware policy (C3 integration: SLA -> scheduler) -------------

TEST(EdfIntegrationTest, DeadlineSloDrivesOrdering) {
  infra::Datacenter dc("edf", "eu");
  dc.add_uniform_racks(1, 1, infra::ResourceVector{1.0, 4.0, 0.0}, 1.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_edf());

  // Job 1 (submitted first) has a loose deadline; job 2 a tight one.
  workload::Job loose = workload::make_bag_of_tasks(1, 1, 50.0);
  loose.sla.add(core::deadline_slo(1000.0));
  workload::Job tight = workload::make_bag_of_tasks(2, 1, 50.0);
  tight.sla.add(core::deadline_slo(120.0));
  workload::Job none = workload::make_bag_of_tasks(3, 1, 50.0);  // no SLO

  engine.submit(loose);
  engine.submit(tight);
  engine.submit(none);
  sim.run_until();

  // Completion order: tight deadline, loose deadline, no deadline.
  // (All arrive at t=0; one 1-core machine serializes them. The first
  // decide() sees all three.)
  ASSERT_EQ(engine.completed().size(), 3u);
  EXPECT_EQ(engine.completed()[0].id, 2u);
  EXPECT_EQ(engine.completed()[1].id, 1u);
  EXPECT_EQ(engine.completed()[2].id, 3u);
}

TEST(EdfIntegrationTest, EdfMeetsMoreDeadlinesThanFcfsUnderPressure) {
  auto run = [](std::unique_ptr<sched::AllocationPolicy> policy) {
    infra::Datacenter dc("edf", "eu");
    dc.add_uniform_racks(1, 2, infra::ResourceVector{4.0, 16.0, 0.0}, 1.0);
    sim::Rng rng(19);
    std::vector<workload::Job> jobs;
    for (workload::JobId i = 1; i <= 40; ++i) {
      workload::Job j = workload::make_bag_of_tasks(
          i, 4, rng.lognormal_mean_cv(60.0, 0.8));
      j.submit_time = static_cast<sim::SimTime>(i) * 10 * sim::kSecond;
      // Half the jobs are urgent, half relaxed.
      j.sla.add(core::deadline_slo(i % 2 == 0 ? 300.0 : 3000.0));
      jobs.push_back(j);
    }
    const auto result = sched::run_workload(dc, std::move(jobs),
                                            std::move(policy));
    std::size_t met = 0;
    for (const auto& job : result.jobs) {
      const core::Sla sla({core::deadline_slo(job.id % 2 == 0 ? 300.0
                                                              : 3000.0)});
      if (sla.violations({{core::NfrDimension::kLatency,
                           job.response_seconds()}}) == 0) {
        ++met;
      }
    }
    return met;
  };
  EXPECT_GE(run(sched::make_edf()), run(sched::make_fcfs()));
}

// ---- whole-pipeline determinism (P8) --------------------------------------------

TEST(DeterminismTest, AutoscaledRunIsBitStableAcrossRepetitions) {
  auto run = [] {
    infra::Datacenter dc("det", "eu");
    dc.add_uniform_racks(2, 8, infra::ResourceVector{4.0, 16.0, 0.0}, 1.0);
    sim::Rng rng(99);
    workload::TraceConfig trace;
    trace.job_count = 30;
    trace.arrivals = workload::ArrivalKind::kBursty;
    trace.workflow_fraction = 0.5;
    autoscale::AutoscaleRunConfig config;
    config.max_machines = 16;
    return autoscale::run_autoscaled(dc, workload::generate_trace(trace, rng),
                                     autoscale::make_react(), config);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_DOUBLE_EQ(a.sched.mean_slowdown, b.sched.mean_slowdown);
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.elasticity.adaptations, b.elasticity.adaptations);
}

TEST(DeterminismTest, FailureScenarioIsReproducible) {
  auto run = [] {
    infra::Datacenter dc("det", "eu");
    dc.add_uniform_racks(2, 8, infra::ResourceVector{4.0, 16.0, 0.0}, 1.0);
    sim::Simulator sim;
    sched::ExecutionEngine engine(sim, dc, sched::make_sjf());
    sim::Rng wrng(5);
    workload::TraceConfig trace;
    trace.job_count = 40;
    engine.submit_all(workload::generate_trace(trace, wrng));
    failures::FailureModelConfig fc;
    fc.mode = failures::CorrelationMode::kSpaceAndTime;
    fc.failures_per_machine_day = 10.0;
    sim::Rng frng(6);
    auto events = failures::generate_failure_trace(dc, fc, sim::kDay, frng);
    failures::FailureInjector injector(sim, dc, events);
    injector.arm([&](infra::MachineId id) { engine.on_machine_failed(id); },
                 [&](infra::MachineId) { engine.kick(); });
    sim.run_until();
    return std::make_pair(engine.tasks_killed(),
                          sched::summarize_run(engine, dc).mean_slowdown);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

// ---- autoscaling x failures (two adaptive mechanisms at once, C6) -----------------

TEST(AutoscaleFailureTest, ElasticPoolSurvivesFailureStorm) {
  infra::Datacenter dc("afx", "eu");
  dc.add_uniform_racks(2, 12, infra::ResourceVector{4.0, 16.0, 0.0}, 1.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  sched::ProvisionedPool pool(sim, dc, engine, {});
  pool.start_with(6);

  sim::Rng wrng(7);
  workload::TraceConfig trace;
  trace.job_count = 30;
  trace.arrival_rate_per_hour = 600.0;
  engine.submit_all(workload::generate_trace(trace, wrng));

  // A burst takes down machines 0-3 at t=5min.
  std::vector<failures::FailureEvent> events;
  events.push_back(
      failures::FailureEvent{5 * sim::kMinute, {0, 1, 2, 3}, 10 * sim::kMinute});
  failures::FailureInjector injector(sim, dc, events);
  injector.arm([&](infra::MachineId id) { engine.on_machine_failed(id); },
               [&](infra::MachineId) { engine.kick(); });

  // A React-style control loop resizes the pool every 30 s.
  sim.schedule_recurring(0, [&]() -> std::optional<sim::SimTime> {
    pool.reap_drained();
    const double demand_machines = engine.demand_cores() / 4.0;
    pool.set_target(static_cast<std::size_t>(demand_machines) + 1);
    if (engine.all_done()) return std::nullopt;
    return 30 * sim::kSecond;
  });
  sim.run_until();

  EXPECT_TRUE(engine.all_done());
  const auto result = sched::summarize_run(engine, dc);
  EXPECT_EQ(result.jobs.size(), 30u);
  EXPECT_EQ(result.abandoned, 0u);
}

// ---- stack x portfolio (Fig. 3 back-end swapping policies live) -------------------

TEST(StackPortfolioTest, PolicySwitchingInsideTheStack) {
  infra::Datacenter dc("sp", "eu");
  dc.add_uniform_racks(1, 8, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
  sim::Simulator sim;
  sched::DatacenterStack::Config config;
  config.initial_machines = 8;
  sched::DatacenterStack stack(sim, dc, sched::make_fcfs(), config);

  sim::Rng rng(8);
  workload::TraceConfig trace;
  trace.job_count = 80;
  trace.arrival_rate_per_hour = 1500.0;
  trace.cv_task_seconds = 2.5;
  for (auto& job : workload::generate_trace(trace, rng)) {
    stack.submit(std::move(job));
  }
  sched::PortfolioScheduler portfolio(sim, dc, stack.backend(),
                                      sched::default_portfolio(),
                                      sim::kMinute);
  portfolio.start();
  sim.run_until();
  EXPECT_TRUE(stack.backend().all_done());
  EXPECT_EQ(stack.backend().jobs_completed(), 80u);
}

// ---- social graph -> Graphalytics kernels (gaming x graph integration) ------------

TEST(SocialGraphIntegrationTest, CoPlayGraphFeedsAllKernels) {
  sim::Rng rng(9);
  const auto sessions = gaming::synthetic_sessions(300, 6, 800, 4, 0.1, rng);
  const auto g = gaming::interaction_graph(sessions, 300);
  // All six kernels run on the mined graph without contradiction.
  const auto depth = graph::bfs(g, 0);
  const auto labels = graph::wcc(g);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (depth[v] != graph::kUnreachable) {
      EXPECT_EQ(labels[v], labels[0]);
    }
  }
  const auto pr = graph::pagerank(g, 10);
  double sum = 0.0;
  for (double r : pr) sum += r;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  const auto dist = graph::sssp(g, 0);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    if (depth[v] != graph::kUnreachable) {
      // Weighted distance uses tie weights >= 1, so it is at least BFS depth.
      EXPECT_GE(dist[v] + 1e-9, static_cast<double>(depth[v]));
    }
  }
}

// ---- parameterized whole-run invariants (property sweep) --------------------------

struct SweepCase {
  std::string label;
  std::string policy;
  workload::ArrivalKind arrivals;
  double workflow_fraction;
};

class WorkloadPolicySweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(WorkloadPolicySweep, CompletesEverythingWithSaneAccounting) {
  const SweepCase& param = GetParam();
  infra::Datacenter dc("sweep", "eu");
  dc.add_uniform_racks(2, 6, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
  sim::Rng rng(31);
  workload::TraceConfig trace;
  trace.job_count = 50;
  trace.arrivals = param.arrivals;
  trace.workflow_fraction = param.workflow_fraction;
  trace.arrival_rate_per_hour = 800.0;
  const auto jobs = workload::generate_trace(trace, rng);
  const double total_work = workload::summarize(jobs).total_work_seconds;

  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_policy(param.policy));
  engine.submit_all(jobs);
  sim.run_until();

  // Invariants: everything completes, nothing abandoned, slowdown >= ~1,
  // busy core-seconds within a small tolerance of the submitted work
  // (single-core tasks: busy == work; multi-core: busy >= work).
  ASSERT_TRUE(engine.all_done());
  const auto result = sched::summarize_run(engine, dc);
  EXPECT_EQ(result.jobs.size(), 50u);
  EXPECT_EQ(result.abandoned, 0u);
  for (const auto& j : result.jobs) {
    EXPECT_GE(j.slowdown(), 0.99) << param.label;
    EXPECT_GE(j.response_seconds(), 0.0);
    EXPECT_LE(j.wait_seconds(), j.response_seconds() + 1e-6);
  }
  EXPECT_GE(engine.busy_core_seconds(), total_work * 0.99);
  // Demand series returned to zero at the end.
  EXPECT_DOUBLE_EQ(engine.demand_cores(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, WorkloadPolicySweep,
    ::testing::Values(
        SweepCase{"fcfs_poisson_bot", "fcfs", workload::ArrivalKind::kPoisson, 0.0},
        SweepCase{"sjf_bursty_bot", "sjf", workload::ArrivalKind::kBursty, 0.0},
        SweepCase{"edf_poisson_mixed", "edf", workload::ArrivalKind::kPoisson, 0.5},
        SweepCase{"heft_bursty_wf", "heft", workload::ArrivalKind::kBursty, 1.0},
        SweepCase{"backfill_diurnal_mixed", "easy-backfill",
                  workload::ArrivalKind::kDiurnal, 0.3},
        SweepCase{"minmin_poisson_wf", "min-min",
                  workload::ArrivalKind::kPoisson, 1.0},
        SweepCase{"random_bursty_mixed", "random",
                  workload::ArrivalKind::kBursty, 0.5}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.label;
    });

// ---- registry x implementation coherence -------------------------------------------

TEST(CoherenceTest, EveryRegisteredPolicyAndAutoscalerConstructs) {
  for (const auto& name : sched::all_policy_names()) {
    EXPECT_NO_THROW((void)sched::make_policy(name)) << name;
  }
  for (const auto& name : autoscale::all_autoscaler_names()) {
    EXPECT_NO_THROW((void)autoscale::make_autoscaler(name)) << name;
  }
}

TEST(CoherenceTest, RegistryValidationAgreesWithChallengeCount) {
  const auto v = core::validate_registries();
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(core::challenges().size(), 20u);
  EXPECT_EQ(core::principles().size(), 10u);
}

}  // namespace
}  // namespace mcs
