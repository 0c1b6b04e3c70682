// The Fig. 3 reference architecture for datacenters, made executable.
//
// Paper §6.1: five core layers — Front-end (application-level
// functionality), Back-end (task/resource/service management on behalf of
// the application), Resources (management on behalf of the operator),
// Operations Service (distributed-OS-style basic services), Infrastructure
// (physical and virtual resources) — plus a sixth, DevOps (monitoring,
// logging, benchmarking), orthogonal to the customer-facing service.
//
// Each layer is a real object with its own responsibilities and activity
// counters; bench/fig3_datacenter drives a workload through the stack and
// prints per-layer accounting, so the figure is regenerated from behaviour
// rather than redrawn.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/callback.hpp"
#include "metrics/elasticity.hpp"
#include "sched/engine.hpp"
#include "sched/provisioning.hpp"

namespace mcs::sched {

/// Operations Service layer: monitoring and logging primitives that the
/// other layers call into (the "distributed operating system" services).
class OperationsService {
 public:
  explicit OperationsService(sim::Simulator& sim) : sim_(sim) {}

  /// Samples a gauge into a named series now and every `interval` after,
  /// while the next sample falls at or before `until`. The sampling loop
  /// owns the move-only probe.
  void monitor(const std::string& gauge, core::UniqueFunction<double()> probe,
               sim::SimTime interval, sim::SimTime until);

  void log(const std::string& line);

  [[nodiscard]] const metrics::StepSeries* series(const std::string& gauge) const;
  [[nodiscard]] std::size_t log_lines() const { return log_count_; }
  [[nodiscard]] std::size_t samples_taken() const { return samples_; }

 private:
  sim::Simulator& sim_;
  std::map<std::string, metrics::StepSeries> series_;
  std::size_t log_count_ = 0;
  std::size_t samples_ = 0;
};

/// Activity counters reported per layer by the Fig. 3 bench.
struct LayerActivity {
  std::string layer;
  std::string role;
  std::uint64_t operations = 0;
};

/// The executable stack. Construction wires the layers bottom-up; submit()
/// enters at the Front-end and flows down.
class DatacenterStack {
 public:
  struct Config {
    std::size_t initial_machines = 8;
    ProvisioningConfig provisioning;
    EngineConfig engine;
  };

  DatacenterStack(sim::Simulator& sim, infra::Datacenter& dc,
                  std::unique_ptr<AllocationPolicy> policy, Config config);

  /// Front-end entry point: accepts an application job. Counts as one
  /// front-end operation; hands to the back-end.
  void submit(workload::Job job);

  /// Resources-layer entry point: the operator (or an autoscaler) resizes
  /// the machine pool.
  void resize_pool(std::size_t machines);

  /// DevOps: starts periodic monitoring of utilization/demand gauges.
  void start_monitoring(sim::SimTime until);

  [[nodiscard]] ExecutionEngine& backend() { return *engine_; }
  [[nodiscard]] ProvisionedPool& resources() { return *pool_; }
  [[nodiscard]] OperationsService& operations() { return *ops_; }

  /// Per-layer activity accounting (Fig. 3 regeneration).
  [[nodiscard]] std::vector<LayerActivity> activity() const;

 private:
  sim::Simulator& sim_;
  infra::Datacenter& dc_;
  std::unique_ptr<OperationsService> ops_;     // layer 2: operations service
  std::unique_ptr<ExecutionEngine> engine_;    // layer 4: back-end
  std::unique_ptr<ProvisionedPool> pool_;      // layer 3: resources
  std::uint64_t frontend_ops_ = 0;             // layer 5: front-end
  std::uint64_t resources_ops_ = 0;
  std::uint64_t devops_ops_ = 0;               // layer 6: devops
  /// How often start_monitoring samples its gauges.
  static constexpr sim::SimTime kMonitorInterval = 30 * sim::kSecond;
};

}  // namespace mcs::sched
