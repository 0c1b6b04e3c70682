// Tests for the extension features: PID autoscaler (C6 survey class (i)),
// ecosystem merge/split (P5 super-flexibility), operational risk (C13),
// and the workload archive format ([139], C16).
#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "autoscale/autoscaler.hpp"
#include "core/ecosystem.hpp"
#include "metrics/elasticity.hpp"
#include "workload/archive.hpp"
#include "workload/trace.hpp"
#include "workload/workflow.hpp"

namespace mcs {
namespace {

// ---- PID autoscaler --------------------------------------------------------------

autoscale::AutoscaleContext pid_ctx(double demand, std::size_t supply) {
  autoscale::AutoscaleContext ctx;
  ctx.demand_machines = demand;
  ctx.supply_machines = supply;
  ctx.max_machines = 64;
  return ctx;
}

TEST(PidTest, ConvergesToConstantDemand) {
  auto pid = autoscale::make_pid();
  std::size_t supply = 1;
  for (int i = 0; i < 40; ++i) {
    supply = std::clamp<std::size_t>(pid->decide(pid_ctx(12.0, supply)), 1, 64);
  }
  EXPECT_EQ(supply, 12u);
}

TEST(PidTest, IntegralEliminatesSteadyStateError) {
  // Proportional-only control with kp < 1 stalls below the target when the
  // error rounds to zero steps; the integral term keeps pushing.
  auto p_only = autoscale::make_pid(0.3, 0.0, 0.0);
  auto pi = autoscale::make_pid(0.3, 0.2, 0.0);
  auto drive = [](autoscale::Autoscaler& scaler) {
    std::size_t supply = 1;
    for (int i = 0; i < 60; ++i) {
      supply = std::clamp<std::size_t>(scaler.decide(pid_ctx(20.0, supply)),
                                       1, 64);
    }
    return supply;
  };
  EXPECT_GE(drive(*pi), drive(*p_only));
  EXPECT_EQ(drive(*pi), 20u);
}

TEST(PidTest, RegisteredInFactory) {
  const auto names = autoscale::all_autoscaler_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "pid"), names.end());
  EXPECT_EQ(autoscale::make_autoscaler("pid")->name(), "pid");
}

TEST(PidTest, EndToEndRunCompletes) {
  infra::Datacenter dc("pid-dc", "eu");
  dc.add_uniform_racks(1, 24, infra::ResourceVector{4.0, 16.0, 0.0}, 1.0);
  sim::Rng rng(4);
  workload::TraceConfig trace;
  trace.job_count = 25;
  trace.arrivals = workload::ArrivalKind::kBursty;
  autoscale::AutoscaleRunConfig config;
  config.max_machines = 24;
  const auto r = autoscale::run_autoscaled(
      dc, workload::generate_trace(trace, rng), autoscale::make_pid(), config);
  EXPECT_EQ(r.sched.jobs.size(), 25u);
  EXPECT_EQ(r.sched.abandoned, 0u);
}

// ---- ecosystem merge / split (P5 super-flexibility) -------------------------------

core::SystemInfo sys(std::string name, core::Layer layer, std::string owner) {
  core::SystemInfo s;
  s.name = std::move(name);
  s.layer = layer;
  s.owner = std::move(owner);
  return s;
}

TEST(SuperFlexibilityTest, MergeAbsorbsEverything) {
  core::Ecosystem acquirer("bigco");
  acquirer.add_system(sys("search", core::Layer::kFrontend, "bigco"));
  core::Ecosystem target("startup");
  target.add_system(sys("ml-api", core::Layer::kBackend, "startup"));
  target.add_subecosystem("ml-cluster")
      .add_system(sys("gpu-node", core::Layer::kInfrastructure, "startup"));
  target.bridge("ml-api", "gpu-node");

  acquirer.merge(std::move(target));
  EXPECT_EQ(acquirer.total_systems(), 3u);
  EXPECT_TRUE(acquirer.find("ml-api").has_value());
  EXPECT_EQ(acquirer.bridges().size(), 1u);
  // The merger is recorded in the genealogy.
  bool merged_recorded = false;
  for (const auto& h : acquirer.history()) {
    if (h.mechanism == core::EvolutionMechanism::kCombine &&
        h.subject == "startup") {
      merged_recorded = true;
    }
  }
  EXPECT_TRUE(merged_recorded);
}

TEST(SuperFlexibilityTest, SplitCarvesSystemsAndSeversCrossingBridges) {
  core::Ecosystem monopoly("toobig");
  monopoly.add_system(sys("store", core::Layer::kFrontend, "toobig"));
  monopoly.add_system(sys("ads", core::Layer::kFrontend, "toobig"));
  monopoly.add_system(sys("cloud", core::Layer::kResources, "toobig"));
  monopoly.add_system(sys("cloud-db", core::Layer::kStorageEngine, "toobig"));
  monopoly.bridge("store", "cloud");        // crossing: severed by the split
  monopoly.bridge("cloud", "cloud-db");     // internal: moves with the carve
  monopoly.bridge("store", "ads");          // stays behind

  core::Ecosystem carved = monopoly.split("cloudco", {"cloud", "cloud-db"});
  EXPECT_EQ(carved.total_systems(), 2u);
  EXPECT_EQ(monopoly.total_systems(), 2u);
  EXPECT_TRUE(carved.find("cloud").has_value());
  EXPECT_FALSE(monopoly.find("cloud").has_value());
  ASSERT_EQ(carved.bridges().size(), 1u);
  EXPECT_EQ(carved.bridges()[0].first, "cloud");
  ASSERT_EQ(monopoly.bridges().size(), 1u);
  EXPECT_EQ(monopoly.bridges()[0].second, "ads");
}

TEST(SuperFlexibilityTest, SplitIgnoresUnknownNames) {
  core::Ecosystem e("x");
  e.add_system(sys("a", core::Layer::kFrontend, "x"));
  core::Ecosystem carved = e.split("y", {"ghost"});
  EXPECT_EQ(carved.total_systems(), 0u);
  EXPECT_EQ(e.total_systems(), 1u);
}

// ---- operational risk ---------------------------------------------------------------

TEST(OperationalRiskTest, BoundsAndMonotonicity) {
  metrics::ElasticityReport ok;  // never under-provisioned
  EXPECT_DOUBLE_EQ(metrics::operational_risk(ok), 0.0);

  metrics::ElasticityReport mild;
  mild.timeshare_under = 0.2;
  mild.accuracy_under_norm = 0.1;
  metrics::ElasticityReport severe;
  severe.timeshare_under = 0.9;
  severe.accuracy_under_norm = 2.0;
  const double r_mild = metrics::operational_risk(mild);
  const double r_severe = metrics::operational_risk(severe);
  EXPECT_GT(r_mild, 0.0);
  EXPECT_GT(r_severe, r_mild);
  EXPECT_LE(r_severe, 1.0);
}

TEST(OperationalRiskTest, ComputedFromRealSeries) {
  metrics::StepSeries demand, supply;
  demand.append(0, 10.0);
  supply.append(0, 5.0);  // half-starved forever
  const auto report = metrics::elasticity_report(demand, supply, 0, sim::kHour);
  const double risk = metrics::operational_risk(report);
  EXPECT_GT(risk, 0.5);
  EXPECT_LE(risk, 1.0);
}

// ---- workload archive ------------------------------------------------------------------

TEST(ArchiveTest, RoundTripPreservesEverything) {
  sim::Rng rng(77);
  workload::TraceConfig config;
  config.job_count = 40;
  config.workflow_fraction = 0.5;
  config.accelerated_fraction = 0.2;
  const auto original = workload::generate_trace(config, rng);

  const auto restored =
      workload::from_archive_string(workload::to_archive_string(original));
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored[i].id, original[i].id);
    EXPECT_EQ(restored[i].submit_time, original[i].submit_time);
    EXPECT_EQ(restored[i].user, original[i].user);
    ASSERT_EQ(restored[i].tasks.size(), original[i].tasks.size());
    for (std::size_t t = 0; t < original[i].tasks.size(); ++t) {
      EXPECT_DOUBLE_EQ(restored[i].tasks[t].work_seconds,
                       original[i].tasks[t].work_seconds);
      EXPECT_DOUBLE_EQ(restored[i].tasks[t].demand.cpu(),
                       original[i].tasks[t].demand.cpu());
      EXPECT_DOUBLE_EQ(restored[i].tasks[t].demand.gpu(),
                       original[i].tasks[t].demand.gpu());
      EXPECT_EQ(restored[i].tasks[t].deps, original[i].tasks[t].deps);
    }
  }
}

TEST(ArchiveTest, ReplayProducesIdenticalSchedule) {
  // Archives exist so experiments replay bit-identically (P8).
  sim::Rng rng(78);
  workload::TraceConfig config;
  config.job_count = 30;
  const auto original = workload::generate_trace(config, rng);
  const auto restored =
      workload::from_archive_string(workload::to_archive_string(original));

  auto run = [](const std::vector<workload::Job>& jobs) {
    infra::Datacenter dc("arch", "eu");
    dc.add_uniform_racks(1, 4, infra::ResourceVector{8, 32, 0}, 1.0);
    return sched::run_workload(dc, jobs, sched::make_sjf());
  };
  const auto a = run(original);
  const auto b = run(restored);
  EXPECT_DOUBLE_EQ(a.mean_slowdown, b.mean_slowdown);
  EXPECT_DOUBLE_EQ(a.makespan_seconds, b.makespan_seconds);
}

TEST(ArchiveTest, EmptyUserSerializesAsDash) {
  workload::Job j = workload::make_bag_of_tasks(1, 1, 5.0);
  j.user.clear();
  const auto text = workload::to_archive_string({j});
  EXPECT_NE(text.find("job 1 0 -"), std::string::npos);
  const auto back = workload::from_archive_string(text);
  EXPECT_TRUE(back[0].user.empty());
}

TEST(ArchiveTest, MalformedInputsThrowWithLineNumbers) {
  EXPECT_THROW((void)workload::from_archive_string("task 1 1 1 0 0\n"),
               std::runtime_error);  // task before job
  EXPECT_THROW((void)workload::from_archive_string("job oops\n"),
               std::runtime_error);
  EXPECT_THROW((void)workload::from_archive_string("banana 1 2 3\n"),
               std::runtime_error);
  EXPECT_THROW(
      (void)workload::from_archive_string("job 1 0 u\ntask 1 1 1 0 2 0\n"),
      std::runtime_error);  // missing dependency index
  // Forward dependency rejected through Job::valid().
  EXPECT_THROW(
      (void)workload::from_archive_string("job 1 0 u\ntask 1 1 1 0 1 5\n"),
      std::runtime_error);
  // Comments and blank lines are fine.
  EXPECT_TRUE(workload::from_archive_string("# header\n\n# more\n").empty());
}

TEST(ArchiveTest, WorkflowStructureSurvives) {
  sim::Rng rng(79);
  workload::WorkflowSizing sizing;
  const auto m = workload::make_montage_like(5, 8, sizing, rng);
  const auto back = workload::from_archive_string(
      workload::to_archive_string({m}));
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].is_workflow());
  EXPECT_DOUBLE_EQ(back[0].critical_path_seconds(), m.critical_path_seconds());
  EXPECT_EQ(max_parallelism(back[0]), max_parallelism(m));
}

}  // namespace
}  // namespace mcs
