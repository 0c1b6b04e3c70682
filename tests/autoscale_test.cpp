// Tests for the seven autoscalers and the autoscale runner (src/autoscale).
#include <gtest/gtest.h>

#include "autoscale/autoscaler.hpp"
#include "workload/trace.hpp"

namespace mcs::autoscale {
namespace {

AutoscaleContext ctx_with_demand(double demand, std::size_t supply = 4,
                                 std::vector<double>* history = nullptr) {
  AutoscaleContext ctx;
  ctx.demand_machines = demand;
  ctx.supply_machines = supply;
  ctx.max_machines = 64;
  ctx.demand_history = history;
  ctx.cores_per_machine = 4.0;
  ctx.mean_task_cores = 1.0;
  return ctx;
}

TEST(AutoscalerDecisionTest, ReactTracksDemandWithHeadroom) {
  auto scaler = make_react();
  EXPECT_EQ(scaler->decide(ctx_with_demand(10.0)), 11u);  // 10 * 1.1
  EXPECT_EQ(scaler->decide(ctx_with_demand(0.0)), 0u);
}

TEST(AutoscalerDecisionTest, AdaptMovesGraduallyTowardDemand) {
  auto scaler = make_adapt();
  // Demand 20, supply 4: gap 16, step clamp 4 -> 8.
  EXPECT_EQ(scaler->decide(ctx_with_demand(20.0, 4)), 8u);
  // Demand 2, supply 8: gap -6, step -3 -> 5.
  EXPECT_EQ(scaler->decide(ctx_with_demand(2.0, 8)), 5u);
}

TEST(AutoscalerDecisionTest, RegExtrapolatesTrend) {
  auto scaler = make_reg();
  std::vector<double> rising = {1, 2, 3, 4, 5, 6};
  const std::size_t target = scaler->decide(ctx_with_demand(6.0, 6, &rising));
  EXPECT_GE(target, 7u);  // predicts beyond the last observation
  std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_EQ(scaler->decide(ctx_with_demand(5.0, 5, &flat)), 5u);
}

TEST(AutoscalerDecisionTest, ConPaasSmoothsAndFollowsTrend) {
  auto scaler = make_conpaas(0.8, 0.5);
  std::size_t last = 0;
  for (double d : {2.0, 4.0, 6.0, 8.0}) {
    last = scaler->decide(ctx_with_demand(d));
  }
  EXPECT_GE(last, 8u);  // trend component pushes at/above current demand
}

TEST(AutoscalerDecisionTest, HistColdStartActsLikeReact) {
  auto scaler = make_hist();
  EXPECT_EQ(scaler->decide(ctx_with_demand(7.3)), 8u);
}

TEST(AutoscalerDecisionTest, TokenFollowsEligibleParallelism) {
  auto scaler = make_token();
  AutoscaleContext ctx = ctx_with_demand(100.0);  // demand signal ignored
  ctx.eligible_tasks = 8;
  ctx.mean_task_cores = 1.0;
  ctx.cores_per_machine = 4.0;
  EXPECT_EQ(scaler->decide(ctx), 2u);  // 8 tasks / 4 cores per machine
}

TEST(AutoscalerDecisionTest, PlanBoundedByParallelism) {
  auto scaler = make_plan();
  AutoscaleContext ctx = ctx_with_demand(0.0);
  ctx.pending_work_machine_seconds = 36000.0;  // would need 120 machines
  ctx.eligible_tasks = 4;                      // but only 4 tasks can run
  ctx.mean_task_cores = 4.0;
  ctx.cores_per_machine = 4.0;
  EXPECT_LE(scaler->decide(ctx), 4u);
}

TEST(AutoscalerDecisionTest, FactoryRoundTrip) {
  for (const auto& name : all_autoscaler_names()) {
    auto scaler = make_autoscaler(name);
    EXPECT_FALSE(scaler->name().empty()) << name;
  }
  EXPECT_THROW((void)make_autoscaler("quantum"), std::invalid_argument);
}

// ---- end-to-end runner ---------------------------------------------------------

std::vector<workload::Job> bursty_workflows(std::size_t jobs, uint64_t seed) {
  sim::Rng rng(seed);
  workload::TraceConfig config;
  config.job_count = jobs;
  config.arrivals = workload::ArrivalKind::kBursty;
  config.arrival_rate_per_hour = 240.0;
  config.workflow_fraction = 0.7;
  config.mean_task_seconds = 30.0;
  config.workflow_width = 8;
  return workload::generate_trace(config, rng);
}

infra::Datacenter pool_dc(std::size_t machines = 32) {
  infra::Datacenter dc("as-dc", "eu");
  dc.add_uniform_racks(1, machines, infra::ResourceVector{4.0, 16.0, 0.0},
                       1.0);
  return dc;
}

TEST(AutoscaleRunTest, ReactCompletesWorkloadAndScales) {
  auto dc = pool_dc();
  AutoscaleRunConfig config;
  config.max_machines = 32;
  auto result = run_autoscaled(dc, bursty_workflows(40, 5), make_react(),
                               config);
  EXPECT_EQ(result.sched.jobs.size(), 40u);
  EXPECT_EQ(result.sched.abandoned, 0u);
  EXPECT_GT(result.ticks, 0u);
  EXPECT_GT(result.elasticity.adaptations, 0u);  // it did scale
  EXPECT_GT(result.cost, 0.0);
}

TEST(AutoscaleRunTest, NoScalerPinsMaxAndCostsMore) {
  AutoscaleRunConfig config;
  config.max_machines = 32;
  auto dc1 = pool_dc();
  const auto fixed =
      run_autoscaled(dc1, bursty_workflows(40, 5), make_no_scaler(), config);
  auto dc2 = pool_dc();
  const auto react =
      run_autoscaled(dc2, bursty_workflows(40, 5), make_react(), config);
  // Static max provisioning wastes money relative to demand tracking.
  EXPECT_GT(fixed.avg_machines, react.avg_machines);
  // And over-provisions heavily by the SPEC metric.
  EXPECT_GT(fixed.elasticity.accuracy_over_norm,
            react.elasticity.accuracy_over_norm);
}

TEST(AutoscaleRunTest, EveryRegisteredAutoscalerFinishesTheWorkload) {
  for (const auto& name : all_autoscaler_names()) {
    auto dc = pool_dc();
    AutoscaleRunConfig config;
    config.max_machines = 32;
    const auto result =
        run_autoscaled(dc, bursty_workflows(25, 9), make_autoscaler(name),
                       config);
    EXPECT_EQ(result.sched.jobs.size(), 25u) << name;
    EXPECT_EQ(result.sched.abandoned, 0u) << name;
    EXPECT_GE(result.elasticity_score, 0.0) << name;
    EXPECT_LE(result.elasticity_score, 1.0) << name;
  }
}

}  // namespace
}  // namespace mcs::autoscale
