// The paper's central object: computer ecosystems (§2.1).
//
// Definition (paper): "a heterogeneous group of computer systems and,
// recursively, of computer ecosystems, collectively constituents.
// Constituents are autonomous, even in competition with each other."
//
// This module gives that definition a machine-checkable form:
//  - Constituent: a system or (recursively) an ecosystem — super-distribution
//    (P5) is the recursion depth being unbounded.
//  - Ownership domains model federation and multi-tenancy.
//  - Evolution mechanisms (§3.2, after Arthur): combine, remove, replace,
//    bridge, add — implemented as mutations with recorded provenance, so an
//    ecosystem carries its own genealogy (used by src/evolve and Fig. 2).
//  - The is_ecosystem() predicate encodes the paper's "when is a system not
//    an ecosystem" tests (§2.1).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/nfr.hpp"

namespace mcs::core {

/// Layers of the big-data reference architecture (Fig. 1) plus the
/// datacenter layers (Fig. 3); constituents declare where they live.
enum class Layer {
  kUnspecified,
  // Fig. 1 (big data):
  kHighLevelLanguage,
  kProgrammingModel,
  kExecutionEngine,
  kStorageEngine,
  // Fig. 3 (datacenter):
  kFrontend,
  kBackend,
  kResources,
  kOperationsService,
  kInfrastructure,
  kDevOps,
};

[[nodiscard]] std::string to_string(Layer layer);

/// A constituent system: the leaf of the recursion.
struct SystemInfo {
  std::string name;
  Layer layer = Layer::kUnspecified;
  std::string owner;        ///< organization operating it (federation)
  bool autonomous = true;   ///< can act independently (paper: required)
  bool legacy = false;      ///< monolithic / tightly coupled (§2.1 (ii))
  Sla sla;                  ///< NFR guarantees this constituent offers
};

/// How a mutation changed the ecosystem (Arthur's mechanisms, §3.2).
enum class EvolutionMechanism {
  kAdd,      ///< new component for a new function/NFR
  kRemove,   ///< redundant or useless component removed
  kReplace,  ///< component swapped for a more advanced one
  kCombine,  ///< components combined into a larger assembly (sub-ecosystem)
  kBridge,   ///< adapter inserted between mismatched components
};

[[nodiscard]] std::string to_string(EvolutionMechanism m);

struct EvolutionRecord {
  EvolutionMechanism mechanism;
  std::string subject;      ///< component affected
  std::string detail;
  std::uint64_t step = 0;   ///< logical time of the mutation
};

/// A recursive ecosystem of systems and sub-ecosystems.
class Ecosystem {
 public:
  explicit Ecosystem(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a leaf system. Returns its index among systems.
  std::size_t add_system(SystemInfo info);

  /// Adds (adopts) a sub-ecosystem; recursion is the paper's
  /// super-distribution (P5).
  Ecosystem& add_subecosystem(std::string name);

  /// Declares an interoperation bridge between two constituents
  /// (meta-middleware in the paper's C2 discussion).
  void bridge(const std::string& from, const std::string& to);

  /// Super-flexibility (P5): "a framework for managing product mergers and
  /// break-ups ... on short-notice and quickly."
  /// merge() absorbs another ecosystem's systems, sub-ecosystems, and
  /// bridges into this one (the merger); the source is left empty.
  void merge(Ecosystem&& other);

  /// split() carves the named systems (and bridges entirely among them)
  /// out into a new ecosystem (the break-up, e.g. under anti-trust law —
  /// the paper's own example). Unknown names are ignored.
  [[nodiscard]] Ecosystem split(const std::string& new_name,
                                const std::vector<std::string>& system_names);

  // --- queries ------------------------------------------------------------

  // mcs-lint: allow(R1) — SuperFlexibilityTest (tests/extensions_test.cpp)
  // checks which bridges a merge or split keeps; nothing else exposes them.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& bridges() const {
    return bridges_;
  }
  // mcs-lint: allow(R1) — EcosystemTest.EvolutionMechanismsAreRecorded
  // (tests/core_test.cpp) reads the genealogy; nothing else exposes it.
  [[nodiscard]] const std::vector<EvolutionRecord>& history() const { return history_; }

  /// Total leaf systems, recursively.
  [[nodiscard]] std::size_t total_systems() const;

  /// Maximum nesting depth (a flat group of systems has depth 1).
  [[nodiscard]] std::size_t depth() const;

  /// The paper's §2.1 qualification test. A group qualifies as an ecosystem
  /// when it is heterogeneous (>1 layer or >1 owner), its constituents are
  /// autonomous, and it is not a legacy monolith (no constituent flagged
  /// legacy holding >50% of the systems).
  [[nodiscard]] bool is_ecosystem() const;

  /// Finds a system by name at this level.
  [[nodiscard]] std::optional<SystemInfo> find(const std::string& name) const;

 private:
  void collect_owners(std::map<std::string, int>& owners) const;
  void record(EvolutionMechanism m, std::string subject, std::string detail);

  std::string name_;
  std::vector<SystemInfo> systems_;
  std::vector<std::unique_ptr<Ecosystem>> children_;
  std::vector<std::pair<std::string, std::string>> bridges_;
  std::vector<EvolutionRecord> history_;
  std::uint64_t step_ = 0;
};

}  // namespace mcs::core
