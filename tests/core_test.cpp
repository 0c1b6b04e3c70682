// Tests for the ecosystem core: NFR/SLA model, recursive ecosystems,
// and the Tables 1/2/3/5 registries (src/core).
#include <gtest/gtest.h>

#include "core/ecosystem.hpp"
#include "core/nfr.hpp"
#include "core/registry.hpp"

namespace mcs::core {
namespace {

// ---- SLO / SLA ---------------------------------------------------------------

TEST(SloTest, CeilingAndFloorSemantics) {
  const Slo deadline = deadline_slo(10.0);
  EXPECT_TRUE(deadline.attained(9.9));
  EXPECT_TRUE(deadline.attained(10.0));
  EXPECT_FALSE(deadline.attained(10.1));

  const Slo avail{NfrDimension::kAvailability, 0.99, /*is_ceiling=*/false};
  EXPECT_TRUE(avail.attained(0.995));
  EXPECT_FALSE(avail.attained(0.98));
}

TEST(SlaTest, CountsViolationsAndMissingObservations) {
  Sla sla({deadline_slo(5.0),
           Slo{NfrDimension::kAvailability, 0.9, /*is_ceiling=*/false},
           Slo{NfrDimension::kCost, 100.0, /*is_ceiling=*/true}});
  const std::vector<Sla::Observation> obs = {
      {NfrDimension::kLatency, 4.0},       // ok
      {NfrDimension::kAvailability, 0.5},  // violated
      // cost unobserved -> violated
  };
  EXPECT_EQ(sla.violations(obs), 2u);
}

TEST(SlaTest, PenaltyScalesWithWeight) {
  Sla sla;
  sla.add(deadline_slo(1.0, /*weight=*/3.0));
  const std::vector<Sla::Observation> obs = {{NfrDimension::kLatency, 2.0}};
  EXPECT_DOUBLE_EQ(sla.penalty(obs, 10.0), 30.0);
}

TEST(NfrTest, DimensionNames) {
  EXPECT_EQ(to_string(NfrDimension::kLatency), "latency");
  EXPECT_EQ(to_string(NfrDimension::kElasticity), "elasticity");
}

// ---- Ecosystem -----------------------------------------------------------------

SystemInfo sys(std::string name, Layer layer, std::string owner,
               bool autonomous = true, bool legacy = false) {
  SystemInfo s;
  s.name = std::move(name);
  s.layer = layer;
  s.owner = std::move(owner);
  s.autonomous = autonomous;
  s.legacy = legacy;
  return s;
}

TEST(EcosystemTest, SingleSystemIsNotAnEcosystem) {
  Ecosystem e("solo");
  e.add_system(sys("app", Layer::kFrontend, "acme"));
  EXPECT_FALSE(e.is_ecosystem());
}

TEST(EcosystemTest, HomogeneousSingleOwnerGroupIsNotAnEcosystem) {
  Ecosystem e("farm");
  e.add_system(sys("a", Layer::kInfrastructure, "acme"));
  e.add_system(sys("b", Layer::kInfrastructure, "acme"));
  EXPECT_FALSE(e.is_ecosystem());
}

TEST(EcosystemTest, HeterogeneousMultiOwnerGroupQualifies) {
  Ecosystem e("bigdata");
  e.add_system(sys("hadoop", Layer::kExecutionEngine, "apache"));
  e.add_system(sys("hdfs", Layer::kStorageEngine, "apache"));
  e.add_system(sys("hive", Layer::kHighLevelLanguage, "facebook"));
  EXPECT_TRUE(e.is_ecosystem());
}

TEST(EcosystemTest, NonAutonomousConstituentDisqualifies) {
  Ecosystem e("tight");
  e.add_system(sys("a", Layer::kFrontend, "x"));
  e.add_system(sys("b", Layer::kBackend, "y", /*autonomous=*/false));
  EXPECT_FALSE(e.is_ecosystem());
}

TEST(EcosystemTest, LegacyMajorityDisqualifies) {
  Ecosystem e("bank");
  e.add_system(sys("cobol1", Layer::kBackend, "bank", true, /*legacy=*/true));
  e.add_system(sys("cobol2", Layer::kBackend, "bank", true, /*legacy=*/true));
  e.add_system(sys("api", Layer::kFrontend, "fintech"));
  EXPECT_FALSE(e.is_ecosystem());
}

TEST(EcosystemTest, SuperDistributionIsRecursive) {
  // P5: ecosystems of ecosystems of ecosystems.
  Ecosystem root("federation");
  root.add_system(sys("broker", Layer::kResources, "eu"));
  Ecosystem& dc1 = root.add_subecosystem("dc-ams");
  dc1.add_system(sys("nova", Layer::kResources, "vu"));
  Ecosystem& rack = dc1.add_subecosystem("rack-7");
  rack.add_system(sys("node-1", Layer::kInfrastructure, "vu"));
  rack.add_system(sys("node-2", Layer::kInfrastructure, "tud"));

  EXPECT_EQ(root.depth(), 3u);
  EXPECT_EQ(root.total_systems(), 4u);
  EXPECT_TRUE(root.is_ecosystem());
}

TEST(EcosystemTest, EvolutionMechanismsAreRecorded) {
  Ecosystem e("evolving");
  e.add_system(sys("mapred", Layer::kProgrammingModel, "google"));
  e.add_system(sys("gfs", Layer::kStorageEngine, "google"));
  e.bridge("mapred", "gfs");

  const auto& h = e.history();
  ASSERT_EQ(h.size(), 3u);
  EXPECT_EQ(h[0].mechanism, EvolutionMechanism::kAdd);
  EXPECT_EQ(h[2].mechanism, EvolutionMechanism::kBridge);
  // Steps are strictly increasing (a usable genealogy).
  for (std::size_t i = 1; i < h.size(); ++i) {
    EXPECT_GT(h[i].step, h[i - 1].step);
  }
}

// ---- registries ------------------------------------------------------------------

TEST(RegistryTest, TenPrinciplesInPaperOrder) {
  const auto& ps = principles();
  ASSERT_EQ(ps.size(), 10u);
  EXPECT_EQ(ps[0].key_aspects, "The Age of Ecosystems");
  EXPECT_EQ(ps[4].key_aspects, "super-distributed");
  EXPECT_EQ(ps[9].type, PrincipleType::kMethodology);
  // Type boundaries exactly as Table 2: P1-5 systems, P6-7 peopleware,
  // P8-10 methodology.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(ps[i].type, PrincipleType::kSystems);
  for (int i = 5; i < 7; ++i) EXPECT_EQ(ps[i].type, PrincipleType::kPeopleware);
  for (int i = 7; i < 10; ++i) EXPECT_EQ(ps[i].type, PrincipleType::kMethodology);
}

TEST(RegistryTest, TwentyChallengesMatchTable3Mapping) {
  const auto& cs = challenges();
  ASSERT_EQ(cs.size(), 20u);
  // Spot-check the mapping column against the paper's Table 3.
  EXPECT_EQ(cs[2].principle_refs, (std::vector<int>{3, 5}));    // C3
  EXPECT_EQ(cs[6].principle_refs, (std::vector<int>{4, 5}));    // C7
  EXPECT_EQ(cs[8].principle_refs, (std::vector<int>{2, 3, 4, 5}));  // C9
  EXPECT_EQ(cs[14].principle_refs, (std::vector<int>{7, 8}));   // C15
  EXPECT_EQ(cs[19].principle_refs, (std::vector<int>{10}));     // C20
  // Type boundaries: C1-10 systems, C11-14 peopleware, C15-20 methodology.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(cs[i].type, ChallengeType::kSystems);
  for (int i = 10; i < 14; ++i) EXPECT_EQ(cs[i].type, ChallengeType::kPeopleware);
  for (int i = 14; i < 20; ++i) EXPECT_EQ(cs[i].type, ChallengeType::kMethodology);
}

TEST(RegistryTest, CrossReferencesValidate) {
  const RegistryValidation v = validate_registries();
  for (const auto& err : v.errors) ADD_FAILURE() << err;
  EXPECT_TRUE(v.ok);
}

TEST(RegistryTest, EveryComputationalChallengeNamesItsDemonstrator) {
  // The paper's peopleware-only challenges (C12, C14, C20) have no
  // computational content; all others must be traceable to code.
  for (const auto& c : challenges()) {
    const bool non_computational =
        c.index == 12 || c.index == 14 || c.index == 20;
    if (non_computational) {
      EXPECT_TRUE(c.demonstrated_by.empty()) << "C" << c.index;
    } else {
      EXPECT_FALSE(c.demonstrated_by.empty()) << "C" << c.index;
    }
  }
}

TEST(RegistryTest, Table5CodesAreLegalAndMcsRowMatchesPaper) {
  const auto& fs = field_comparisons();
  ASSERT_EQ(fs.size(), 6u);
  for (const auto& f : fs) {
    EXPECT_TRUE(field_comparison_codes_valid(f)) << f.field;
  }
  const auto& mcs = fs.back();
  EXPECT_EQ(mcs.field, "MCS");
  EXPECT_EQ(mcs.objectives, "DES");
  EXPECT_EQ(mcs.methodology, "ADHSP");
  EXPECT_EQ(mcs.character, "ACES");
}

TEST(RegistryTest, IllegalCodeIsRejected) {
  FieldComparison f = field_comparisons().front();
  f.objectives = "DEX";  // X is not a Ropohl objective
  EXPECT_FALSE(field_comparison_codes_valid(f));
}

TEST(RegistryTest, UseCasesSplitEndoExo) {
  const auto& ucs = use_cases();
  ASSERT_EQ(ucs.size(), 6u);
  int endo = 0;
  for (const auto& u : ucs) {
    if (u.endogenous) ++endo;
    EXPECT_FALSE(u.example_binary.empty()) << u.description;
  }
  EXPECT_EQ(endo, 3);
}

TEST(RegistryTest, OverviewCoversAllFourQuestions) {
  bool who = false, what = false, how = false, related = false;
  for (const auto& row : overview()) {
    if (row.question == "Who?") who = true;
    if (row.question == "What?") what = true;
    if (row.question == "How?") how = true;
    if (row.question == "Related") related = true;
  }
  EXPECT_TRUE(who && what && how && related);
}

}  // namespace
}  // namespace mcs::core
