// Physical machine model: heterogeneous capacity, speed, power, state.
//
// Challenge C4 ("extreme heterogeneity"): infrastructure mixes CPU
// generations, accelerators (GPU/FPGA/TPU-class), memory sizes, and NIC
// speeds. Machines carry a K=4 resource vector (core::ResourceQuantities:
// cpu/mem/gpu/net) plus a speed factor, which the scheduler's scoring pass
// and the heterogeneity experiments use.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/resources.hpp"

namespace mcs::infra {

using MachineId = std::uint32_t;

/// Multi-dimensional runtime capacity/demand. Units: cpu (cores), mem
/// (GiB), gpu (accelerator count), net (Gbps). Array-backed with named
/// accessors — see core/resources.hpp.
using ResourceVector = core::ResourceQuantities;

/// Linear power model: idle draw plus utilization-proportional dynamic part
/// (the standard datacenter-simulation model, e.g. CloudSim/OpenDC).
struct PowerModel {
  double idle_watts = 100.0;
  double max_watts = 250.0;
};

enum class MachineState { kOperational, kFailed, kOff };

[[nodiscard]] std::string to_string(MachineState s);

/// One physical machine. Allocation is capacity bookkeeping; execution
/// timing is the scheduler's job (runtime = work / speed_factor).
///
/// A machine added to a Datacenter counts every change of its state or
/// allocations (`allocate`, `release`, `fail`, `repair`, `set_state`) on
/// the datacenter's mutation counter (Datacenter::mutations()), so a
/// component that mirrors the fleet can tell whether anyone else changed
/// it. A stand-alone machine counts nowhere.
class Machine {
 public:
  Machine(MachineId id, std::string name, ResourceVector capacity,
          double speed_factor, PowerModel power = {});

  [[nodiscard]] MachineId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ResourceVector& capacity() const { return capacity_; }
  [[nodiscard]] const ResourceVector& used() const { return used_; }
  [[nodiscard]] ResourceVector available() const { return capacity_ - used_; }
  [[nodiscard]] double speed_factor() const { return speed_factor_; }
  [[nodiscard]] MachineState state() const { return state_; }
  [[nodiscard]] bool usable() const { return state_ == MachineState::kOperational; }

  /// True when `r` fits within available() of an operational machine: the
  /// test a planned row applies (sched::PlannedCapacity::fits).
  [[nodiscard]] bool can_fit(const ResourceVector& r) const;

  /// Claims resources; throws std::logic_error when they do not fit.
  void allocate(const ResourceVector& r);

  /// Returns resources; throws std::logic_error on over-release. When the
  /// last live allocation is released, `used()` snaps back to exactly zero
  /// — fractional demands leave floating-point residue under repeated
  /// allocate/release, and a residue of 1e-16 cores is enough to starve a
  /// full-machine task forever (found by mcs_check, seed shrunk into
  /// tests/repros/full_machine_fp_residue.repro). The clamp/snap applies
  /// per dimension.
  void release(const ResourceVector& r);

  /// Allocations currently held (allocate() minus release(); reset by
  /// fail()/repair()). Zero implies used() is exactly zero.
  [[nodiscard]] std::uint32_t live_allocations() const {
    return live_allocations_;
  }

  /// Core utilization in [0, 1].
  [[nodiscard]] double utilization() const;

  /// Instantaneous power draw under the linear model; 0 when off, idle
  /// draw when failed (a failed machine typically still draws power until
  /// powered down).
  [[nodiscard]] double power_watts() const;

  void set_state(MachineState s);

  /// Fails the machine and forgets all allocations (tasks die with it).
  void fail();
  /// Repairs a failed machine back to operational, empty.
  void repair();

 private:
  friend class Datacenter;  // points mutations_ at its counter

  void count_mutation() {
    if (mutations_ != nullptr) ++*mutations_;
  }

  MachineId id_;
  std::string name_;
  ResourceVector capacity_;
  ResourceVector used_;
  std::uint32_t live_allocations_ = 0;
  double speed_factor_;
  PowerModel power_;
  MachineState state_ = MachineState::kOperational;
  /// The owning datacenter's mutation counter; null when stand-alone.
  std::uint64_t* mutations_ = nullptr;
};

}  // namespace mcs::infra
