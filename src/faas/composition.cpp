#include <functional>
#include "faas/composition.hpp"

#include <stdexcept>

namespace mcs::faas {

Composition Composition::invoke(std::string function) {
  Composition c;
  c.kind_ = Kind::kInvoke;
  c.function_ = std::move(function);
  return c;
}

Composition Composition::sequence(std::vector<Composition> steps) {
  if (steps.empty()) throw std::invalid_argument("sequence: empty");
  Composition c;
  c.kind_ = Kind::kSequence;
  c.children_ = std::move(steps);
  return c;
}

Composition Composition::parallel(std::vector<Composition> branches) {
  if (branches.empty()) throw std::invalid_argument("parallel: empty");
  Composition c;
  c.kind_ = Kind::kParallel;
  c.children_ = std::move(branches);
  return c;
}

std::size_t Composition::invocation_count() const {
  if (kind_ == Kind::kInvoke) return 1;
  std::size_t total = 0;
  for (const Composition& child : children_) total += child.invocation_count();
  return total;
}

CompositionEngine::CompositionEngine(sim::Simulator& sim,
                                     FaasPlatform& platform, Config config)
    : sim_(sim), platform_(platform), config_(config) {}

void CompositionEngine::run(const Composition& composition, Callback done) {
  ++runs_;
  auto acc = std::make_shared<WorkflowResult>();
  const sim::SimTime start = sim_.now();
  run_node(composition, acc, [this, acc, start, done = std::move(done)] {
    acc->latency_seconds = sim::to_seconds(sim_.now() - start);
    if (done) done(*acc);
  });
}

void CompositionEngine::run_node(const Composition& node,
                                 std::shared_ptr<WorkflowResult> acc,
                                 std::function<void()> done) {
  switch (node.kind()) {
    case Composition::Kind::kInvoke: {
      // Meta-scheduling delay, then submit to the management layer.
      sim_.schedule_after(
          sim::from_seconds(config_.meta_schedule_ms / 1000.0),
          [this, name = node.function(), acc, done = std::move(done)] {
            platform_.invoke(name,
                             [acc, done](const InvocationResult& r) {
                               ++acc->invocations;
                               if (r.cold_start) ++acc->cold_starts;
                               done();
                             });
          });
      break;
    }
    case Composition::Kind::kSequence:
      run_steps(node, 0, std::move(acc), std::move(done));
      break;
    case Composition::Kind::kParallel: {
      // The branches share one join: the last to finish calls `done`.
      struct Join {
        std::size_t remaining;
        std::function<void()> done;
      };
      auto join = std::make_shared<Join>(
          Join{node.children().size(), std::move(done)});
      for (const Composition& child : node.children()) {
        run_node(child, acc, [join] {
          if (--join->remaining == 0) join->done();
        });
      }
      break;
    }
  }
}

void CompositionEngine::run_steps(const Composition& node, std::size_t i,
                                  std::shared_ptr<WorkflowResult> acc,
                                  std::function<void()> done) {
  if (i == node.children().size()) {
    done();
    return;
  }
  // The pending child's callback owns the rest of the sequence: `done` and
  // the next position. `node` outlives it, as compositions are passed by
  // caller reference.
  run_node(node.children()[i], acc,
           [this, &node, i, acc, done = std::move(done)]() mutable {
             run_steps(node, i + 1, std::move(acc), std::move(done));
           });
}

}  // namespace mcs::faas
