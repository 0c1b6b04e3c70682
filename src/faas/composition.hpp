// Function Composition Layer of Fig. 5: workflows of functions.
//
// The paper: "the Function Composition Layer is responsible for the
// meta-scheduling, that is, creating workflows of functions and submitting
// the individual tasks to the management layer." Compositions are trees of
// Invoke / Sequence / Parallel nodes; running one walks the tree through
// the management layer, charging a meta-scheduling delay per submission —
// the source of the composition overhead exp_faas_overhead measures.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "faas/platform.hpp"

namespace mcs::faas {

class Composition {
 public:
  enum class Kind { kInvoke, kSequence, kParallel };

  [[nodiscard]] static Composition invoke(std::string function);
  [[nodiscard]] static Composition sequence(std::vector<Composition> steps);
  [[nodiscard]] static Composition parallel(std::vector<Composition> branches);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const std::string& function() const { return function_; }
  [[nodiscard]] const std::vector<Composition>& children() const {
    return children_;
  }
  /// Number of function invocations one run performs.
  [[nodiscard]] std::size_t invocation_count() const;

 private:
  Kind kind_ = Kind::kInvoke;
  std::string function_;
  std::vector<Composition> children_;
};

struct WorkflowResult {
  double latency_seconds = 0.0;      ///< end-to-end, as the client sees it
  std::size_t invocations = 0;
  std::size_t cold_starts = 0;
};

class CompositionEngine {
 public:
  struct Config {
    /// Meta-scheduling delay charged per submission to the management
    /// layer (state persistence, trigger dispatch).
    double meta_schedule_ms = 5.0;
  };

  CompositionEngine(sim::Simulator& sim, FaasPlatform& platform,
                    Config config);
  CompositionEngine(sim::Simulator& sim, FaasPlatform& platform)
      : CompositionEngine(sim, platform, Config{}) {}

  using Callback = std::function<void(const WorkflowResult&)>;

  /// Runs a composition; `done` fires when the whole workflow finishes.
  void run(const Composition& composition, Callback done);

  [[nodiscard]] std::uint64_t workflows_run() const { return runs_; }

 private:
  void run_node(const Composition& node,
                std::shared_ptr<WorkflowResult> acc,
                std::function<void()> done);
  /// Runs `node`'s children from the `i`-th on, one after another.
  void run_steps(const Composition& node, std::size_t i,
                 std::shared_ptr<WorkflowResult> acc,
                 std::function<void()> done);

  sim::Simulator& sim_;
  FaasPlatform& platform_;
  Config config_;
  std::uint64_t runs_ = 0;
};

}  // namespace mcs::faas
