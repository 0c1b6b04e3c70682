// Provisioning: the other half of the paper's dual scheduling problem (C7).
//
// A ProvisionedPool decides *how many* machines of a datacenter are powered
// and offered to the execution engine; allocation policies then place tasks
// on them. Booting takes time (cloud instances are not instant), draining
// waits for running work, and every powered machine-second is billed —
// giving autoscalers (src/autoscale) a real cost/performance trade-off.
#pragma once

#include <set>

#include "infra/topology.hpp"
#include "metrics/elasticity.hpp"
#include "sched/engine.hpp"
#include "sim/simulator.hpp"

namespace mcs::sched {

struct ProvisioningConfig {
  /// Machines kept on no matter what.
  std::size_t min_machines = 1;
  /// Boot latency for a powered-off machine.
  sim::SimTime boot_delay = 60 * sim::kSecond;
  /// Price billed per machine-hour powered on.
  double price_per_machine_hour = 0.20;
};

/// Elastic machine pool over one datacenter, cooperating with an engine.
class ProvisionedPool {
 public:
  ProvisionedPool(sim::Simulator& sim, infra::Datacenter& dc,
                  ExecutionEngine& engine, ProvisioningConfig config = {});

  /// Powers the first `n` machines on initially (instantaneous).
  void start_with(std::size_t n);

  /// Requests the pool to converge to `target` powered machines. Booting is
  /// delayed by boot_delay; shrinking drains machines and powers them off
  /// as they go idle.
  void set_target(std::size_t target);

  /// Machines currently powered and usable by the engine (excludes booting
  /// and draining ones).
  [[nodiscard]] std::size_t active() const;
  /// Powered machines including booting and draining (what is billed).
  [[nodiscard]] std::size_t powered() const;
  [[nodiscard]] std::size_t target() const { return target_; }

  /// Accumulated cost so far (bills up to now()).
  [[nodiscard]] double cost() const;

  /// Supply series in machine counts (for elasticity metrics on the
  /// machine axis rather than the core axis).
  [[nodiscard]] const metrics::StepSeries& supply_series() const {
    return supply_;
  }

  /// Must be called periodically (autoscaler interval works): completes
  /// drains whose machines went idle.
  void reap_drained();

 private:
  void power_on(infra::MachineId id);
  void begin_drain(infra::MachineId id);
  void finish_drain(infra::MachineId id);
  void bill_until_now() const;
  void record_supply();

  sim::Simulator& sim_;
  infra::Datacenter& dc_;
  ExecutionEngine& engine_;
  ProvisioningConfig config_;
  std::size_t target_ = 0;

  std::set<infra::MachineId> on_;        ///< powered and usable
  std::set<infra::MachineId> booting_;   ///< boot event in flight
  std::set<infra::MachineId> draining_;  ///< powered, being drained
  mutable double billed_cost_ = 0.0;
  mutable sim::SimTime billed_until_ = 0;
  metrics::StepSeries supply_;
};

}  // namespace mcs::sched
