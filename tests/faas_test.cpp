// Tests for the Fig. 5 FaaS stack: registry, platform lifecycle
// (cold/warm, keep-alive, queueing), and composition (src/faas).
#include <gtest/gtest.h>

#include "faas/composition.hpp"
#include "faas/platform.hpp"

namespace mcs::faas {
namespace {

infra::Datacenter make_dc(std::size_t machines = 4, double mem_gib = 8.0) {
  infra::Datacenter dc("faas", "eu");
  dc.add_uniform_racks(1, machines, infra::ResourceVector{8.0, mem_gib, 0.0},
                       1.0);
  return dc;
}

FunctionSpec spec(std::string name, double exec_s = 0.1, double mem_mb = 256,
                  double cold_s = 1.0) {
  FunctionSpec s;
  s.name = std::move(name);
  s.mean_exec_seconds = exec_s;
  s.cv_exec = 0.0;  // deterministic for tests
  s.memory_mb = mem_mb;
  s.cold_start_seconds = cold_s;
  return s;
}

// ---- registry ----------------------------------------------------------------

TEST(RegistryTest, DeployAndFind) {
  FunctionRegistry reg;
  reg.deploy(spec("resize"));
  EXPECT_TRUE(reg.find("resize").has_value());
  EXPECT_FALSE(reg.find("missing").has_value());
  EXPECT_THROW(reg.deploy(spec("resize")), std::invalid_argument);
  EXPECT_THROW(reg.deploy(spec("", 0.1)), std::invalid_argument);
}

// ---- platform ------------------------------------------------------------------

TEST(PlatformTest, FirstInvocationIsColdSecondIsWarm) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform platform(sim, dc, {}, sim::Rng(1));
  platform.deploy(spec("f", 0.1, 256, 1.0));

  std::vector<InvocationResult> results;
  platform.invoke("f", [&](const InvocationResult& r) { results.push_back(r); });
  sim.run_until(10 * sim::kSecond);
  platform.invoke("f", [&](const InvocationResult& r) { results.push_back(r); });
  sim.run_until(20 * sim::kSecond);

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].cold_start);
  EXPECT_FALSE(results[1].cold_start);
  // Cold invocation pays the cold-start second.
  EXPECT_GT(results[0].latency_seconds, 1.0);
  EXPECT_LT(results[1].latency_seconds, 0.2);
  EXPECT_EQ(platform.stats("f").cold_starts, 1u);
  EXPECT_EQ(platform.stats("f").invocations, 2u);
}

TEST(PlatformTest, ConcurrentBurstScalesOutInstances) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform platform(sim, dc, {}, sim::Rng(1));
  platform.deploy(spec("f", 1.0));  // 1s executions

  int done = 0;
  for (int i = 0; i < 10; ++i) {
    platform.invoke("f", [&](const InvocationResult&) { ++done; });
  }
  sim.run_until(sim::kSecond / 2);
  // All ten run concurrently on ten instances.
  EXPECT_EQ(platform.total_instances(), 10u);
  sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(done, 10);
  EXPECT_EQ(platform.stats("f").cold_starts, 10u);
}

TEST(PlatformTest, KeepAliveReapsIdleInstances) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform::Config config;
  config.keep_alive = 30 * sim::kSecond;
  FaasPlatform platform(sim, dc, config, sim::Rng(1));
  platform.deploy(spec("f"));
  platform.invoke("f", {});
  sim.run_until(10 * sim::kSecond);
  EXPECT_EQ(platform.total_instances(), 1u);
  EXPECT_GT(platform.memory_in_use_mb(), 0.0);
  sim.run_until(2 * sim::kMinute);
  EXPECT_EQ(platform.total_instances(), 0u);
  EXPECT_DOUBLE_EQ(platform.memory_in_use_mb(), 0.0);
  EXPECT_EQ(platform.instances_reaped(), 1u);
}

TEST(PlatformTest, WarmReuseResetsKeepAlive) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform::Config config;
  config.keep_alive = 30 * sim::kSecond;
  FaasPlatform platform(sim, dc, config, sim::Rng(1));
  platform.deploy(spec("f"));
  platform.invoke("f", {});
  // Re-invoke at 20s: instance stays warm past the original 30s deadline.
  sim.schedule_at(20 * sim::kSecond, [&] { platform.invoke("f", {}); });
  sim.run_until(40 * sim::kSecond);
  EXPECT_EQ(platform.total_instances(), 1u);
  sim.run_until(2 * sim::kMinute);
  EXPECT_EQ(platform.total_instances(), 0u);
}

TEST(PlatformTest, MemoryExhaustionQueuesRequests) {
  // 1 machine x 1 GiB; 512 MB functions -> only 2 instances fit.
  auto dc = make_dc(1, 1.0);
  sim::Simulator sim;
  FaasPlatform platform(sim, dc, {}, sim::Rng(1));
  platform.deploy(spec("big", 1.0, 512.0));
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    platform.invoke("big", [&](const InvocationResult&) { ++done; });
  }
  sim.run_until(sim::kSecond / 2);
  EXPECT_EQ(platform.total_instances(), 2u);
  EXPECT_EQ(platform.stats("big").queued, 4u);
  sim.run_until(30 * sim::kSecond);
  EXPECT_EQ(done, 6);  // queue drains through the two instances
  // Queued requests see extra latency.
  EXPECT_GT(platform.stats("big").latency.max(),
            platform.stats("big").latency.min() * 1.5);
}

TEST(PlatformTest, UnknownFunctionThrows) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform platform(sim, dc, {}, sim::Rng(1));
  EXPECT_THROW(platform.invoke("ghost", {}), std::invalid_argument);
  EXPECT_THROW((void)platform.stats("ghost"), std::out_of_range);
}

// ---- composition ------------------------------------------------------------------

TEST(CompositionTest, TreeShapeAccounting) {
  const auto wf = Composition::sequence({
      Composition::invoke("a"),
      Composition::parallel({Composition::invoke("b"),
                             Composition::invoke("c"),
                             Composition::invoke("d")}),
      Composition::invoke("e"),
  });
  EXPECT_EQ(wf.invocation_count(), 5u);
  EXPECT_THROW(Composition::sequence({}), std::invalid_argument);
  EXPECT_THROW(Composition::parallel({}), std::invalid_argument);
}

TEST(CompositionTest, SequenceLatencyAddsParallelOverlaps) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform platform(sim, dc, {}, sim::Rng(1));
  for (const char* name : {"a", "b", "c"}) {
    platform.deploy(spec(name, 1.0, 128, 0.0));  // no cold start, 1s exec
  }
  CompositionEngine engine(sim, platform, {});

  const auto seq = Composition::sequence({Composition::invoke("a"),
                                          Composition::invoke("b"),
                                          Composition::invoke("c")});
  const auto par = Composition::parallel({Composition::invoke("a"),
                                          Composition::invoke("b"),
                                          Composition::invoke("c")});
  WorkflowResult seq_result, par_result;
  engine.run(seq, [&](const WorkflowResult& r) { seq_result = r; });
  sim.run_until(20 * sim::kSecond);
  engine.run(par, [&](const WorkflowResult& r) { par_result = r; });
  sim.run_until(40 * sim::kSecond);

  EXPECT_EQ(seq_result.invocations, 3u);
  EXPECT_NEAR(seq_result.latency_seconds, 3.0, 0.1);   // serial
  EXPECT_NEAR(par_result.latency_seconds, 1.0, 0.1);   // overlapped
  EXPECT_EQ(engine.workflows_run(), 2u);
}

TEST(CompositionTest, MetaSchedulingOverheadCharged) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform platform(sim, dc, {}, sim::Rng(1));
  platform.deploy(spec("f", 0.01, 128, 0.0));
  CompositionEngine::Config config;
  config.meta_schedule_ms = 100.0;  // exaggerated for visibility
  CompositionEngine engine(sim, platform, config);

  std::vector<Composition> steps;
  for (int i = 0; i < 5; ++i) steps.push_back(Composition::invoke("f"));
  const auto wf = Composition::sequence(std::move(steps));
  WorkflowResult result;
  engine.run(wf, [&](const WorkflowResult& r) { result = r; });
  sim.run_until(20 * sim::kSecond);
  // 5 hops x 100ms meta-scheduling dominates the 50ms of compute.
  EXPECT_GT(result.latency_seconds, 0.5);
}

TEST(CompositionTest, ColdStartsPropagateToWorkflowStats) {
  auto dc = make_dc();
  sim::Simulator sim;
  FaasPlatform platform(sim, dc, {}, sim::Rng(1));
  platform.deploy(spec("x", 0.05, 128, 0.5));
  platform.deploy(spec("y", 0.05, 128, 0.5));
  CompositionEngine engine(sim, platform, {});
  const auto wf = Composition::sequence(
      {Composition::invoke("x"), Composition::invoke("y")});
  WorkflowResult result;
  engine.run(wf, [&](const WorkflowResult& r) { result = r; });
  sim.run_until(20 * sim::kSecond);
  EXPECT_EQ(result.cold_starts, 2u);
}

}  // namespace
}  // namespace mcs::faas
