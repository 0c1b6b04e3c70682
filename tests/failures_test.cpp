// Tests for the correlated failure models and the injector (src/failures).
#include <gtest/gtest.h>

#include "failures/failure_model.hpp"

namespace mcs::failures {
namespace {

infra::Datacenter make_dc(std::size_t racks = 4, std::size_t per_rack = 16) {
  infra::Datacenter dc("dc", "eu");
  dc.add_uniform_racks(racks, per_rack,
                       infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
  return dc;
}

TEST(FailureTraceTest, IidEventsAreSingletons) {
  auto dc = make_dc();
  sim::Rng rng(9);
  FailureModelConfig config;
  config.mode = CorrelationMode::kIid;
  config.failures_per_machine_day = 1.0;
  const auto trace = generate_failure_trace(dc, config, 7 * sim::kDay, rng);
  ASSERT_FALSE(trace.empty());
  for (const auto& e : trace) {
    EXPECT_EQ(e.machines.size(), 1u);
    EXPECT_GT(e.downtime, 0);
  }
}

TEST(FailureTraceTest, EventsSortedWithinHorizon) {
  auto dc = make_dc();
  sim::Rng rng(9);
  FailureModelConfig config;
  config.failures_per_machine_day = 0.5;
  const auto trace = generate_failure_trace(dc, config, 3 * sim::kDay, rng);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_LT(trace[i].at, 3 * sim::kDay);
    if (i > 0) { EXPECT_GE(trace[i].at, trace[i - 1].at); }
  }
}

TEST(FailureTraceTest, SpaceCorrelationProducesBurstsWithinRacks) {
  auto dc = make_dc(4, 16);
  sim::Rng rng(9);
  FailureModelConfig config;
  config.mode = CorrelationMode::kSpaceCorrelated;
  config.failures_per_machine_day = 2.0;
  config.mean_burst_size = 6.0;
  const auto trace = generate_failure_trace(dc, config, 7 * sim::kDay, rng);
  ASSERT_FALSE(trace.empty());
  const auto stats = summarize(trace);
  EXPECT_GT(stats.mean_event_size, 2.0);  // real bursts
  // Every event stays within one rack.
  for (const auto& e : trace) {
    const std::size_t rack = dc.rack_of(e.machines.front());
    for (auto id : e.machines) EXPECT_EQ(dc.rack_of(id), rack);
    EXPECT_LE(e.machines.size(), 16u);
  }
}

TEST(FailureTraceTest, TimeCorrelationRaisesGapVariability) {
  auto dc = make_dc();
  FailureModelConfig iid;
  iid.mode = CorrelationMode::kIid;
  iid.failures_per_machine_day = 2.0;
  FailureModelConfig timec = iid;
  timec.mode = CorrelationMode::kTimeCorrelated;

  sim::Rng rng1(9), rng2(9);
  const auto t_iid = generate_failure_trace(dc, iid, 30 * sim::kDay, rng1);
  const auto t_time = generate_failure_trace(dc, timec, 30 * sim::kDay, rng2);
  const auto s_iid = summarize(t_iid);
  const auto s_time = summarize(t_time);
  // Weibull shape < 1 gives CV > 1 (clustered); exponential gives CV ~ 1.
  EXPECT_NEAR(s_iid.gap_cv, 1.0, 0.25);
  EXPECT_GT(s_time.gap_cv, s_iid.gap_cv * 1.3);
}

TEST(FailureTraceTest, ComparableVolumeAcrossModes) {
  // The generator holds the long-run machine-failure volume roughly equal
  // across modes, so experiments compare correlation structure, not scale.
  auto dc = make_dc();
  FailureModelConfig config;
  config.failures_per_machine_day = 1.0;
  double volumes[2];
  int i = 0;
  for (auto mode :
       {CorrelationMode::kIid, CorrelationMode::kSpaceCorrelated}) {
    sim::Rng rng(13);
    config.mode = mode;
    const auto trace = generate_failure_trace(dc, config, 30 * sim::kDay, rng);
    volumes[i++] = static_cast<double>(summarize(trace).machine_failures);
  }
  EXPECT_NEAR(volumes[1] / volumes[0], 1.0, 0.45);
}

TEST(FailureTraceTest, EmptyConfigurationsProduceEmptyTraces) {
  auto dc = make_dc();
  sim::Rng rng(1);
  FailureModelConfig config;
  config.failures_per_machine_day = 0.0;
  EXPECT_TRUE(generate_failure_trace(dc, config, sim::kDay, rng).empty());
  config.failures_per_machine_day = 1.0;
  EXPECT_TRUE(generate_failure_trace(dc, config, 0, rng).empty());
  infra::Datacenter empty("none", "eu");
  EXPECT_TRUE(generate_failure_trace(empty, config, sim::kDay, rng).empty());
}

TEST(FailureTraceTest, SameSeedGivesIdenticalTraceAcrossModes) {
  // Determinism contract (gate.exp_failures relies on it): re-generating
  // with the same seed must reproduce every event bit-for-bit — times,
  // burst membership, and downtimes — in every correlation mode.
  auto dc = make_dc();
  for (auto mode :
       {CorrelationMode::kIid, CorrelationMode::kSpaceCorrelated,
        CorrelationMode::kTimeCorrelated, CorrelationMode::kSpaceAndTime}) {
    FailureModelConfig config;
    config.mode = mode;
    config.failures_per_machine_day = 1.0;
    sim::Rng a(77);
    sim::Rng b(77);
    const auto ta = generate_failure_trace(dc, config, 7 * sim::kDay, a);
    const auto tb = generate_failure_trace(dc, config, 7 * sim::kDay, b);
    ASSERT_EQ(ta.size(), tb.size()) << "mode " << static_cast<int>(mode);
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].at, tb[i].at);
      EXPECT_EQ(ta[i].machines, tb[i].machines);
      EXPECT_EQ(ta[i].downtime, tb[i].downtime);
    }
  }
}

TEST(FailureTraceTest, DifferentSeedsGiveDifferentCorrelatedBursts) {
  // Sanity guard against a constant generator: distinct seeds must move
  // at least the event times of a correlated-burst trace.
  auto dc = make_dc();
  FailureModelConfig config;
  config.mode = CorrelationMode::kSpaceAndTime;
  config.failures_per_machine_day = 1.0;
  sim::Rng a(1);
  sim::Rng b(2);
  const auto ta = generate_failure_trace(dc, config, 7 * sim::kDay, a);
  const auto tb = generate_failure_trace(dc, config, 7 * sim::kDay, b);
  ASSERT_FALSE(ta.empty());
  ASSERT_FALSE(tb.empty());
  bool differs = ta.size() != tb.size();
  for (std::size_t i = 0; !differs && i < ta.size(); ++i) {
    differs = ta[i].at != tb[i].at || ta[i].machines != tb[i].machines;
  }
  EXPECT_TRUE(differs);
}

TEST(FailureInjectorTest, FailsAndRepairsMachines) {
  auto dc = make_dc(1, 4);
  sim::Simulator sim;
  std::vector<FailureEvent> trace;
  trace.push_back(FailureEvent{10 * sim::kSecond, {0, 1}, 5 * sim::kSecond});
  FailureInjector injector(sim, dc, trace);
  std::vector<infra::MachineId> observed;
  injector.arm([&](infra::MachineId id) { observed.push_back(id); });

  sim.run_until(12 * sim::kSecond);
  EXPECT_EQ(dc.machine(0).state(), infra::MachineState::kFailed);
  EXPECT_EQ(dc.machine(1).state(), infra::MachineState::kFailed);
  EXPECT_EQ(dc.machine(2).state(), infra::MachineState::kOperational);
  EXPECT_EQ(observed, (std::vector<infra::MachineId>{0, 1}));

  sim.run_until(16 * sim::kSecond);
  EXPECT_EQ(dc.machine(0).state(), infra::MachineState::kOperational);
  EXPECT_EQ(injector.injected_failures(), 2u);
}

TEST(FailureInjectorTest, DoubleFailureIsIdempotent) {
  auto dc = make_dc(1, 2);
  sim::Simulator sim;
  std::vector<FailureEvent> trace;
  trace.push_back(FailureEvent{10, {0}, 100});
  trace.push_back(FailureEvent{20, {0}, 100});  // already down: skipped
  FailureInjector injector(sim, dc, trace);
  injector.arm({});
  sim.run_until();
  EXPECT_EQ(injector.injected_failures(), 1u);
  EXPECT_EQ(dc.machine(0).state(), infra::MachineState::kOperational);
}

}  // namespace
}  // namespace mcs::failures
