#include "infra/instance_catalog.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcs::infra {

std::string to_string(InstanceFamily f) {
  switch (f) {
    case InstanceFamily::kGeneral: return "general";
    case InstanceFamily::kCompute: return "compute";
    case InstanceFamily::kMemory: return "memory";
    case InstanceFamily::kAccelerated: return "accelerated";
    case InstanceFamily::kFpga: return "fpga";
    case InstanceFamily::kBurstable: return "burstable";
  }
  return "unknown";
}

void InstanceCatalog::add(InstanceType type) {
  if (type.price_per_hour < 0.0 || type.speed_factor <= 0.0) {
    throw std::invalid_argument("InstanceCatalog::add: bad type parameters");
  }
  // mcs-lint: allow(H3) — catalog construction is setup-time; the name
  // `add` collides with hot-path metric recording in the call graph.
  types_.push_back(std::move(type));
}

InstanceCatalog InstanceCatalog::representative() {
  InstanceCatalog c;
  auto t = [](std::string name, InstanceFamily fam, double cores, double mem,
              double acc, double speed, double price) {
    return InstanceType{std::move(name), fam,
                        ResourceVector{cores, mem, acc}, speed, price};
  };
  // Burstable: cheap, slow.
  c.add(t("t3.small", InstanceFamily::kBurstable, 2, 2, 0, 0.6, 0.02));
  c.add(t("t3.large", InstanceFamily::kBurstable, 2, 8, 0, 0.7, 0.08));
  // General purpose.
  c.add(t("m5.large", InstanceFamily::kGeneral, 2, 8, 0, 1.0, 0.10));
  c.add(t("m5.2xlarge", InstanceFamily::kGeneral, 8, 32, 0, 1.0, 0.38));
  c.add(t("m5.8xlarge", InstanceFamily::kGeneral, 32, 128, 0, 1.0, 1.54));
  // Compute optimized: faster cores, less memory per core.
  c.add(t("c5.xlarge", InstanceFamily::kCompute, 4, 8, 0, 1.4, 0.17));
  c.add(t("c5.4xlarge", InstanceFamily::kCompute, 16, 32, 0, 1.4, 0.68));
  c.add(t("c5.9xlarge", InstanceFamily::kCompute, 36, 72, 0, 1.4, 1.53));
  // Memory optimized.
  c.add(t("r5.xlarge", InstanceFamily::kMemory, 4, 32, 0, 1.0, 0.25));
  c.add(t("r5.4xlarge", InstanceFamily::kMemory, 16, 128, 0, 1.0, 1.01));
  // Accelerated.
  c.add(t("g4dn.xlarge", InstanceFamily::kAccelerated, 4, 16, 1, 1.1, 0.53));
  c.add(t("p3.2xlarge", InstanceFamily::kAccelerated, 8, 61, 1, 1.2, 3.06));
  c.add(t("p3.8xlarge", InstanceFamily::kAccelerated, 32, 244, 4, 1.2, 12.24));
  // FPGA.
  c.add(t("f1.2xlarge", InstanceFamily::kFpga, 8, 122, 1, 1.0, 1.65));
  return c;
}

std::optional<InstanceType> InstanceCatalog::find(
    const std::string& name) const {
  for (const auto& t : types_) {
    if (t.name == name) return t;
  }
  return std::nullopt;
}

std::vector<InstanceType> InstanceCatalog::feasible(
    const ResourceVector& demand) const {
  std::vector<InstanceType> out;
  for (const auto& t : types_) {
    if (demand.fits_within(t.resources)) out.push_back(t);
  }
  return out;
}

// mcs-lint: allow(R1) — only the CatalogTest and CatalogGapTest selection
// cases (tests/infra_test.cpp, tests/coverage_gaps_test.cpp) call it; it
// goes with those five tests in a later change, since one change may take
// at most three tests out of the suite.
std::optional<InstanceType> InstanceCatalog::select(
    const ResourceVector& demand, SelectionObjective objective) const {
  const auto options = feasible(demand);
  if (options.empty()) return std::nullopt;
  auto score = [objective](const InstanceType& t) {
    switch (objective) {
      case SelectionObjective::kCheapest:
        return -t.price_per_hour;
      case SelectionObjective::kFastest:
        return t.speed_factor;
      case SelectionObjective::kBestPricePerf:
        return t.price_per_hour == 0.0
                   ? t.resources.cpu() * t.speed_factor
                   : t.resources.cpu() * t.speed_factor / t.price_per_hour;
    }
    return 0.0;
  };
  return *std::max_element(options.begin(), options.end(),
                           [&](const InstanceType& a, const InstanceType& b) {
                             return score(a) < score(b);
                           });
}

}  // namespace mcs::infra
