// Deeper tests for the engine's observability surface — the signals the
// autoscalers and the elasticity metrics depend on (instantaneous demand
// and supply cores, pending work, level-of-parallelism lookahead) — plus
// matchmaking (C5).
#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "gaming/social.hpp"
#include "sched/engine.hpp"
#include "workload/workflow.hpp"

namespace mcs {
namespace {

infra::Datacenter make_dc(std::size_t machines = 2, double cores = 4.0) {
  infra::Datacenter dc("em", "eu");
  dc.add_uniform_racks(1, machines,
                       infra::ResourceVector{cores, cores * 4.0, 0.0}, 1.0);
  return dc;
}

// ---- demand / supply cores -----------------------------------------------------

TEST(EngineSignalsTest, DemandSeriesTracksQueueAndRunning) {
  auto dc = make_dc(1, 4.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  // 8 single-core 100 s tasks on 4 cores: demand 8 while queued+running,
  // dropping to 4 after the first wave completes.
  engine.submit(workload::make_bag_of_tasks(1, 8, 100.0));
  sim.run_until(50 * sim::kSecond);
  EXPECT_DOUBLE_EQ(engine.demand_cores(), 8.0);
  EXPECT_DOUBLE_EQ(engine.supply_cores(), 4.0);
  sim.run_until(150 * sim::kSecond);
  EXPECT_DOUBLE_EQ(engine.demand_cores(), 4.0);
  sim.run_until();
  EXPECT_DOUBLE_EQ(engine.demand_cores(), 0.0);
}

TEST(EngineSignalsTest, SupplySeriesReflectsDrainAndFailure) {
  auto dc = make_dc(2, 4.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  EXPECT_DOUBLE_EQ(engine.supply_cores(), 8.0);
  engine.drain(0);
  EXPECT_DOUBLE_EQ(engine.supply_cores(), 4.0);
  engine.undrain(0);
  dc.machine(1).fail();
  EXPECT_DOUBLE_EQ(engine.supply_cores(), 4.0);
}

// ---- pending work ----------------------------------------------------------------

TEST(EngineSignalsTest, PendingWorkDrainsWithProgress) {
  auto dc = make_dc(1, 2.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  // 4 tasks x 100 s x 1 core = 400 core-seconds.
  engine.submit(workload::make_bag_of_tasks(1, 4, 100.0));
  sim.run_until(sim::kSecond);
  EXPECT_NEAR(engine.pending_work_core_seconds(), 400.0, 5.0);
  sim.run_until(50 * sim::kSecond);
  // Two tasks half-done: ~300 remaining.
  EXPECT_NEAR(engine.pending_work_core_seconds(), 300.0, 5.0);
  sim.run_until();
  EXPECT_DOUBLE_EQ(engine.pending_work_core_seconds(), 0.0);
}

// ---- eligible_within (the Token/Plan lookahead) -------------------------------------

TEST(EngineSignalsTest, EligibleWithinSeesUnlockingSuccessors) {
  auto dc = make_dc(1, 4.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  // A chain: task0 (100 s) -> task1 -> task2. While task0 runs, task1
  // becomes eligible within any window covering task0's finish.
  engine.submit(workload::make_chain(1, 3, 100.0));
  sim.run_until(10 * sim::kSecond);
  ASSERT_EQ(engine.running_count(), 1u);
  EXPECT_EQ(engine.eligible_within(10 * sim::kSecond), 0u);   // finish at t=100
  EXPECT_EQ(engine.eligible_within(200 * sim::kSecond), 1u);  // task1 unlocks
  // The horizon saturates: an unbounded window sees every unlock.
  EXPECT_EQ(engine.eligible_within(sim::kTimeInfinity), 1u);
}

TEST(EngineSignalsTest, EligibleWithinNeedsEveryMissingDependency) {
  auto dc = make_dc(1, 4.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  // A join: task0 (ends at t=50) and task1 (ends at t=150) run side by
  // side, and task2 waits on both, listing task1 twice.
  workload::Job join = workload::make_bag_of_tasks(1, 3, 50.0);
  join.tasks[1].work_seconds = 150.0;
  join.tasks[2].deps = {0, 1, 1};
  engine.submit(join);
  sim.run_until(10 * sim::kSecond);
  ASSERT_EQ(engine.running_count(), 2u);
  EXPECT_EQ(engine.eligible_within(100 * sim::kSecond), 0u);  // task0 only
  EXPECT_EQ(engine.eligible_within(200 * sim::kSecond), 1u);  // both
}

TEST(EngineSignalsTest, EligibleWithinCountsReadyTasks) {
  auto dc = make_dc(1, 2.0);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  engine.submit(workload::make_bag_of_tasks(1, 6, 100.0));
  sim.run_until(sim::kSecond);
  // 2 running, 4 ready; within 200 s the running ones have no successors.
  EXPECT_EQ(engine.eligible_within(200 * sim::kSecond), 4u);
}

// ---- matchmaking (C5) ------------------------------------------------------------------

TEST(MatchmakingTest, SocialMatchmakerBeatsRandomOnCohesion) {
  sim::Rng rng(21);
  const auto sessions =
      gaming::synthetic_sessions(240, 8, 1200, 4, 0.05, rng);
  const auto g = gaming::interaction_graph(sessions, 240);

  sim::Rng mm_rng(22);
  const auto random_matches = gaming::matchmake_random(240, 4, 200, mm_rng);
  const auto social_matches = gaming::matchmake_social(g, 4, 200, mm_rng);
  const auto random_quality = gaming::evaluate_matches(g, random_matches);
  const auto social_quality = gaming::evaluate_matches(g, social_matches);

  // The social matchmaker reunites community members: far higher cohesion
  // and real pre-existing ties inside matches.
  EXPECT_GT(social_quality.community_cohesion,
            random_quality.community_cohesion * 2.0);
  EXPECT_GT(social_quality.mean_pair_tie, random_quality.mean_pair_tie);
  // Shapes: every match has the requested size.
  for (const auto& m : social_matches) EXPECT_EQ(m.players.size(), 4u);
}

TEST(MatchmakingTest, FallsBackWhenCommunitiesTooSmall) {
  // A graph of isolated pairs: no community can host a 4-player match.
  std::vector<gaming::PlaySession> tiny;
  for (std::uint32_t p = 0; p + 1 < 16; p += 2) {
    tiny.push_back(gaming::PlaySession{{p, p + 1}});
  }
  const auto g = gaming::interaction_graph(tiny, 16);
  sim::Rng rng(23);
  const auto matches = gaming::matchmake_social(g, 4, 10, rng);
  EXPECT_EQ(matches.size(), 10u);
  for (const auto& m : matches) EXPECT_EQ(m.players.size(), 4u);
}

TEST(MatchmakingTest, BadParametersThrow) {
  sim::Rng rng(1);
  EXPECT_THROW((void)gaming::matchmake_random(3, 4, 1, rng),
               std::invalid_argument);
  const auto g = gaming::interaction_graph({}, 2);
  EXPECT_THROW((void)gaming::matchmake_social(g, 4, 1, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace mcs
