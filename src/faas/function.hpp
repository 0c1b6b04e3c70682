// Cloud-function abstraction for the Fig. 5 FaaS reference architecture
// (§6.5): the business-logic unit that the Function Management Layer
// instantiates and routes to, and the Function Composition Layer chains.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace mcs::faas {

struct FunctionSpec {
  std::string name;
  double memory_mb = 256.0;
  /// Execution time distribution (lognormal around the mean).
  double mean_exec_seconds = 0.1;
  double cv_exec = 0.3;
  /// Cold-start penalty: runtime + dependency initialization.
  double cold_start_seconds = 1.0;
};

/// Registry of deployable functions (the platform's deployment catalog).
class FunctionRegistry {
 public:
  /// Registers a spec; throws on duplicate names or bad parameters.
  void deploy(FunctionSpec spec);

  [[nodiscard]] std::optional<FunctionSpec> find(const std::string& name) const;

 private:
  std::vector<FunctionSpec> functions_;
};

}  // namespace mcs::faas
