// Tests for machines, topology, and the instance catalog (src/infra).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "infra/instance_catalog.hpp"
#include "infra/machine.hpp"
#include "infra/topology.hpp"

namespace mcs::infra {
namespace {

ResourceVector rv(double cores, double mem = 0.0, double acc = 0.0) {
  return ResourceVector{cores, mem, acc};
}

// ---- ResourceVector ---------------------------------------------------------

TEST(ResourceVectorTest, FitsWithinIsComponentwise) {
  EXPECT_TRUE(rv(2, 4).fits_within(rv(4, 8)));
  EXPECT_FALSE(rv(5, 4).fits_within(rv(4, 8)));
  EXPECT_FALSE(rv(2, 9).fits_within(rv(4, 8)));
  EXPECT_FALSE(rv(1, 1, 1).fits_within(rv(4, 8, 0)));  // accelerator missing
}

TEST(ResourceVectorTest, Arithmetic) {
  const ResourceVector sum = rv(2, 4, 1) + rv(1, 2, 0);
  EXPECT_DOUBLE_EQ(sum.cpu(), 3.0);
  EXPECT_DOUBLE_EQ(sum.mem(), 6.0);
  EXPECT_DOUBLE_EQ(sum.gpu(), 1.0);
  const ResourceVector diff = sum - rv(3, 6, 1);
  EXPECT_DOUBLE_EQ(diff.cpu(), 0.0);
}

// ---- Machine -----------------------------------------------------------------

TEST(MachineTest, AllocateReleaseLifecycle) {
  Machine m(0, "n0", rv(8, 32), 1.0);
  EXPECT_TRUE(m.can_fit(rv(8, 32)));
  m.allocate(rv(6, 16));
  EXPECT_FALSE(m.can_fit(rv(4, 4)));
  EXPECT_TRUE(m.can_fit(rv(2, 16)));
  EXPECT_DOUBLE_EQ(m.utilization(), 0.75);
  m.release(rv(6, 16));
  EXPECT_DOUBLE_EQ(m.utilization(), 0.0);
}

TEST(MachineTest, OverAllocationThrows) {
  Machine m(0, "n0", rv(4, 8), 1.0);
  EXPECT_THROW(m.allocate(rv(5, 1)), std::logic_error);
  m.allocate(rv(4, 8));
  EXPECT_THROW(m.allocate(rv(1, 0)), std::logic_error);
}

TEST(MachineTest, OverReleaseThrows) {
  Machine m(0, "n0", rv(4, 8), 1.0);
  m.allocate(rv(2, 2));
  EXPECT_THROW(m.release(rv(3, 2)), std::logic_error);
}

TEST(MachineTest, FailureDropsAllocations) {
  Machine m(0, "n0", rv(4, 8), 1.0);
  m.allocate(rv(4, 8));
  m.fail();
  EXPECT_EQ(m.state(), MachineState::kFailed);
  EXPECT_FALSE(m.usable());
  EXPECT_FALSE(m.can_fit(rv(1, 1)));
  m.repair();
  EXPECT_TRUE(m.usable());
  EXPECT_DOUBLE_EQ(m.used().cpu(), 0.0);
}

TEST(MachineTest, PowerModel) {
  Machine m(0, "n0", rv(10, 10), 1.0, PowerModel{100.0, 300.0});
  EXPECT_DOUBLE_EQ(m.power_watts(), 100.0);  // idle
  m.allocate(rv(5, 0));
  EXPECT_DOUBLE_EQ(m.power_watts(), 200.0);  // half dynamic range
  m.set_state(MachineState::kOff);
  EXPECT_DOUBLE_EQ(m.power_watts(), 0.0);
  m.set_state(MachineState::kFailed);
  EXPECT_DOUBLE_EQ(m.power_watts(), 100.0);  // failed still draws idle
}

TEST(MachineTest, InvalidConstructionThrows) {
  EXPECT_THROW(Machine(0, "x", rv(0, 1), 1.0), std::invalid_argument);
  EXPECT_THROW(Machine(0, "x", rv(1, 1), 0.0), std::invalid_argument);
}

// ---- Datacenter / Federation -----------------------------------------------------

TEST(DatacenterTest, UniformRacksBuildTopology) {
  Datacenter dc("dc1", "eu-west");
  dc.add_uniform_racks(4, 8, rv(16, 64), 1.0);
  EXPECT_EQ(dc.machine_count(), 32u);
  EXPECT_EQ(dc.rack_count(), 4u);
  EXPECT_EQ(dc.rack_members(2).size(), 8u);
  EXPECT_EQ(dc.rack_of(17), 2u);  // 17 / 8 == rack 2
  EXPECT_DOUBLE_EQ(dc.total_capacity().cpu(), 32 * 16.0);
}

TEST(DatacenterTest, AvailabilityTracksFailures) {
  Datacenter dc("dc1", "eu");
  dc.add_uniform_racks(1, 10, rv(4, 8), 1.0);
  dc.machine(0).fail();
  dc.machine(1).fail();
  EXPECT_DOUBLE_EQ(dc.total_capacity().cpu(), 8 * 4.0);  // failed excluded
}

TEST(DatacenterTest, MutationsCountEveryMachineChange) {
  Datacenter dc("dc1", "eu");
  EXPECT_EQ(dc.mutations(), 0u);
  dc.add_uniform_racks(1, 2, rv(4, 8), 1.0);
  EXPECT_EQ(dc.mutations(), 2u);  // one per add_machine
  Machine& m = dc.machine(0);
  m.allocate(rv(1, 1));
  m.release(rv(1, 1));
  m.set_state(MachineState::kOff);
  m.set_state(MachineState::kOperational);
  m.fail();
  m.repair();
  EXPECT_EQ(dc.mutations(), 8u);
  // A failed allocation changes nothing and counts nothing.
  EXPECT_THROW(m.allocate(rv(5, 1)), std::logic_error);
  EXPECT_EQ(dc.mutations(), 8u);
  // Reads count nothing, and a stand-alone machine counts nowhere.
  (void)m.available();
  Machine alone(0, "alone", rv(4, 8), 1.0);
  alone.allocate(rv(1, 1));
  EXPECT_EQ(dc.mutations(), 8u);
}

TEST(DatacenterTest, MutationsSurviveAMoveIntoAVector) {
  // Datacenters are returned and stored by value; each machine's pointer
  // to the counter must follow the move (and the vector's regrowth).
  std::vector<Datacenter> dcs;
  for (int i = 0; i < 3; ++i) {
    Datacenter dc("dc" + std::to_string(i), "eu");
    dc.add_uniform_racks(1, 2, rv(4, 8), 1.0);
    dcs.push_back(std::move(dc));
  }
  for (Datacenter& dc : dcs) {
    const std::uint64_t before = dc.mutations();
    dc.machine(0).allocate(rv(1, 1));
    EXPECT_EQ(dc.mutations(), before + 1);
    dc.machine(1).fail();
    dc.add_machine("late", rv(4, 8), 1.0, 0);
    dc.machine(2).set_state(MachineState::kOff);
    EXPECT_EQ(dc.mutations(), before + 4);
  }
}

TEST(FederationTest, AggregatesMachines) {
  Federation fed("geo");
  fed.add_datacenter("a", "eu").add_uniform_racks(1, 4, rv(4, 8), 1.0);
  fed.add_datacenter("b", "us").add_uniform_racks(2, 4, rv(4, 8), 1.0);
  EXPECT_EQ(fed.machine_count(), 12u);
  EXPECT_EQ(fed.size(), 2u);
}

// ---- InstanceCatalog ---------------------------------------------------------------

TEST(CatalogTest, RepresentativeCoversAllFamilies) {
  const auto catalog = InstanceCatalog::representative();
  EXPECT_GE(catalog.types().size(), 12u);
  bool families[6] = {false, false, false, false, false, false};
  for (const auto& t : catalog.types()) {
    families[static_cast<int>(t.family)] = true;
  }
  for (bool f : families) EXPECT_TRUE(f);
}

TEST(CatalogTest, CheapestSelectionFits) {
  const auto catalog = InstanceCatalog::representative();
  const auto pick = catalog.select(rv(4, 16), SelectionObjective::kCheapest);
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(rv(4, 16).fits_within(pick->resources));
  // Every feasible alternative costs at least as much.
  for (const auto& t : catalog.feasible(rv(4, 16))) {
    EXPECT_GE(t.price_per_hour, pick->price_per_hour);
  }
}

TEST(CatalogTest, AcceleratorDemandSelectsAcceleratedFamily) {
  const auto catalog = InstanceCatalog::representative();
  const auto pick = catalog.select(rv(2, 8, 1), SelectionObjective::kCheapest);
  ASSERT_TRUE(pick.has_value());
  EXPECT_GE(pick->resources.gpu(), 1.0);
}

TEST(CatalogTest, ImpossibleDemandReturnsNothing) {
  const auto catalog = InstanceCatalog::representative();
  EXPECT_FALSE(catalog.select(rv(1000, 1), SelectionObjective::kCheapest)
                   .has_value());
}

TEST(CatalogTest, FastestPrefersHighSpeed) {
  const auto catalog = InstanceCatalog::representative();
  const auto pick = catalog.select(rv(2, 4), SelectionObjective::kFastest);
  ASSERT_TRUE(pick.has_value());
  for (const auto& t : catalog.feasible(rv(2, 4))) {
    EXPECT_LE(t.speed_factor, pick->speed_factor);
  }
}

TEST(CatalogTest, FindByName) {
  const auto catalog = InstanceCatalog::representative();
  EXPECT_TRUE(catalog.find("m5.large").has_value());
  EXPECT_FALSE(catalog.find("x99.mega").has_value());
}

}  // namespace
}  // namespace mcs::infra
