// Tests for public behaviours not covered by the per-module suites:
// catalog objectives, remaining RNG samplers, stats edge cases, simulator
// corner states, and enum string coverage.
#include <gtest/gtest.h>

#include "core/ecosystem.hpp"
#include "evolve/evolution.hpp"
#include "infra/instance_catalog.hpp"
#include "metrics/stats.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mcs {
namespace {

// ---- InstanceCatalog: the price-performance objective -----------------------------

TEST(CatalogGapTest, BestPricePerfBalancesSpeedAndCost) {
  const auto catalog = infra::InstanceCatalog::representative();
  const auto pick = catalog.select(infra::ResourceVector{2, 4, 0},
                                   infra::SelectionObjective::kBestPricePerf);
  ASSERT_TRUE(pick.has_value());
  const double chosen_score =
      pick->resources.cpu() * pick->speed_factor / pick->price_per_hour;
  for (const auto& t : catalog.feasible(infra::ResourceVector{2, 4, 0})) {
    const double score =
        t.resources.cpu() * t.speed_factor / t.price_per_hour;
    EXPECT_LE(score, chosen_score + 1e-9) << t.name;
  }
}

TEST(CatalogGapTest, AddRejectsBadTypes) {
  infra::InstanceCatalog catalog;
  infra::InstanceType bad;
  bad.name = "neg";
  bad.price_per_hour = -1.0;
  EXPECT_THROW(catalog.add(bad), std::invalid_argument);
  bad.price_per_hour = 1.0;
  bad.speed_factor = 0.0;
  EXPECT_THROW(catalog.add(bad), std::invalid_argument);
}

// ---- RNG samplers not covered elsewhere --------------------------------------------

TEST(RngGapTest, NormalMoments) {
  sim::Rng rng(5);
  metrics::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(RngGapTest, ChanceBoundaries) {
  sim::Rng rng(5);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

TEST(RngGapTest, ShuffleIsAPermutation) {
  sim::Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// ---- stats edge cases ------------------------------------------------------------------

TEST(StatsGapTest, SingleSampleAccumulator) {
  metrics::Accumulator acc;
  acc.add(42.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 42.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);  // n-1 undefined -> 0
  EXPECT_DOUBLE_EQ(acc.min(), 42.0);
  EXPECT_DOUBLE_EQ(acc.median(), 42.0);
  EXPECT_DOUBLE_EQ(acc.iqr(), 0.0);
}

TEST(StatsGapTest, QuantileClampsOutOfRangeArguments) {
  metrics::Accumulator acc;
  for (double x : {1.0, 2.0, 3.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(acc.quantile(2.0), 3.0);
}

TEST(StatsGapTest, DegenerateCorrelationInputs) {
  const auto fit = metrics::least_squares({1.0, 1.0}, {2.0, 3.0});  // vertical
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

// ---- simulator corner states ----------------------------------------------------------

TEST(SimulatorGapTest, StepOnEmptyQueueIsFalse) {
  sim::Simulator sim;
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorGapTest, CancelOfDefaultHandleIsRejected) {
  sim::Simulator sim;
  sim::EventHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(sim.cancel(h));
}

TEST(SimulatorGapTest, PendingCountsTombstones) {
  sim::Simulator sim;
  auto h = sim.schedule_at(5, [] {});
  sim.schedule_at(10, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending(), 2u);  // tombstoned in place
  sim.run_until();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorGapTest, RunUntilInfinityDoesNotParkClock) {
  sim::Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run_until();  // default horizon = infinity
  EXPECT_EQ(sim.now(), 100);  // clock at the last event, not "infinity"
}

// ---- enum coverage -----------------------------------------------------------------------

TEST(EnumStringsTest, AllVariantsNamed) {
  using core::Layer;
  for (Layer layer :
       {Layer::kUnspecified, Layer::kHighLevelLanguage,
        Layer::kProgrammingModel, Layer::kExecutionEngine,
        Layer::kStorageEngine, Layer::kFrontend, Layer::kBackend,
        Layer::kResources, Layer::kOperationsService, Layer::kInfrastructure,
        Layer::kDevOps}) {
    EXPECT_NE(core::to_string(layer), "unknown");
  }
  using core::EvolutionMechanism;
  for (auto m : {EvolutionMechanism::kAdd, EvolutionMechanism::kRemove,
                 EvolutionMechanism::kReplace, EvolutionMechanism::kCombine,
                 EvolutionMechanism::kBridge}) {
    EXPECT_NE(core::to_string(m), "unknown");
  }
  for (auto f :
       {infra::InstanceFamily::kGeneral, infra::InstanceFamily::kCompute,
        infra::InstanceFamily::kMemory, infra::InstanceFamily::kAccelerated,
        infra::InstanceFamily::kFpga, infra::InstanceFamily::kBurstable}) {
    EXPECT_NE(infra::to_string(f), "unknown");
  }
}

// ---- evolution model population details --------------------------------------------------

TEST(EvolutionGapTest, RadicalFlagMarksNonDarwinianOffspring) {
  evolve::EvolutionConfig config;
  config.steps = 200;
  config.darwinian_probability = 0.0;  // every step is a radical jump
  evolve::EvolutionModel model(config, sim::Rng(13));
  const auto stats = model.run();
  EXPECT_EQ(stats.non_darwinian_events, 200u);
  bool any_radical = false;
  for (const auto& t : model.population()) {
    if (t.radical) any_radical = true;
  }
  EXPECT_TRUE(any_radical);
}

}  // namespace
}  // namespace mcs
