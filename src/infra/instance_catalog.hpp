// Cloud instance-type catalog (C4, C9).
//
// The paper: "AWS alone has over 70 types of compute instances", raising the
// Ecosystem Navigation problem of *selection* on the user's behalf. The
// catalog carries a representative heterogeneous set of families and
// supports requirement-driven selection with pluggable objectives.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "infra/machine.hpp"

namespace mcs::infra {

enum class InstanceFamily {
  kGeneral,        ///< balanced cpu:memory (m-class)
  kCompute,        ///< high clock, low memory (c-class)
  kMemory,         ///< high memory (r-class)
  kAccelerated,    ///< GPUs (p/g-class)
  kFpga,           ///< FPGA (f-class)
  kBurstable,      ///< cheap, low sustained speed (t-class)
};

[[nodiscard]] std::string to_string(InstanceFamily f);

struct InstanceType {
  std::string name;
  InstanceFamily family = InstanceFamily::kGeneral;
  ResourceVector resources;       ///< what the instance provides
  double speed_factor = 1.0;      ///< relative per-core speed
  double price_per_hour = 0.0;    ///< on-demand price (currency units)
};

/// Selection objective for `select` (the Ecosystem Navigation policy knob).
enum class SelectionObjective {
  kCheapest,          ///< min price among fitting types
  kFastest,           ///< max speed among fitting types
  kBestPricePerf,     ///< max (cores*speed)/price
};

class InstanceCatalog {
 public:
  /// Empty catalog; use add() to populate.
  InstanceCatalog() = default;

  void add(InstanceType type);

  /// A representative 14-type catalog across all six families, with
  /// price/performance spreads mirroring public cloud offerings.
  [[nodiscard]] static InstanceCatalog representative();

  // mcs-lint: allow(R1) — CatalogTest.RepresentativeCoversAllFamilies
  // (tests/infra_test.cpp) checks the catalog's contents through it.
  [[nodiscard]] const std::vector<InstanceType>& types() const { return types_; }
  [[nodiscard]] std::optional<InstanceType> find(const std::string& name) const;

  /// Picks the best instance type able to host `demand`, under the given
  /// objective; nullopt when nothing fits.
  [[nodiscard]] std::optional<InstanceType> select(
      const ResourceVector& demand, SelectionObjective objective) const;

  /// All types able to host `demand`.
  [[nodiscard]] std::vector<InstanceType> feasible(
      const ResourceVector& demand) const;

 private:
  std::vector<InstanceType> types_;
};

}  // namespace mcs::infra
