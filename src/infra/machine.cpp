#include "infra/machine.hpp"

#include <algorithm>

namespace mcs::infra {

std::string to_string(MachineState s) {
  switch (s) {
    case MachineState::kOperational: return "operational";
    case MachineState::kFailed: return "failed";
    case MachineState::kOff: return "off";
  }
  return "unknown";
}

Machine::Machine(MachineId id, std::string name, ResourceVector capacity,
                 double speed_factor, PowerModel power)
    : id_(id),
      name_(std::move(name)),
      capacity_(capacity),
      speed_factor_(speed_factor),
      power_(power) {
  if (!capacity.nonnegative() || capacity.cpu() <= 0.0) {
    throw std::invalid_argument("Machine: capacity must have positive cores");
  }
  if (speed_factor <= 0.0) {
    throw std::invalid_argument("Machine: speed factor must be positive");
  }
}

bool Machine::can_fit(const ResourceVector& r) const {
  return usable() && r.fits_within(available());
}

void Machine::allocate(const ResourceVector& r) {
  if (!r.nonnegative()) throw std::logic_error("Machine::allocate: negative");
  if (!can_fit(r)) {
    throw std::logic_error("Machine::allocate: does not fit on " + name_);
  }
  used_ += r;
  ++live_allocations_;
  count_mutation();
}

void Machine::release(const ResourceVector& r) {
  if (live_allocations_ == 0) {
    throw std::logic_error("Machine::release: over-release on " + name_);
  }
  ResourceVector next = used_ - r;
  // Allow tiny residue from floating point accumulation in either
  // direction: clamp negatives to zero and snap near-zero positives to
  // zero, per dimension. Positive residue is the dangerous kind — 1e-16
  // leftover cores make an exactly-full-machine demand unschedulable
  // forever.
  constexpr double kEps = 1e-9;
  for (std::size_t d = 0; d < core::kResourceDims; ++d) {
    if (next[d] < -kEps) {
      throw std::logic_error("Machine::release: over-release on " + name_);
    }
  }
  for (std::size_t d = 0; d < core::kResourceDims; ++d) {
    next[d] = next[d] < kEps ? 0.0 : next[d];
  }
  --live_allocations_;
  // The last holder left: whatever remains is pure accumulation error.
  if (live_allocations_ == 0) next = ResourceVector{};
  used_ = next;
  count_mutation();
}

double Machine::utilization() const {
  return capacity_.cpu() == 0.0 ? 0.0 : used_.cpu() / capacity_.cpu();
}

double Machine::power_watts() const {
  switch (state_) {
    case MachineState::kOff:
      return 0.0;
    case MachineState::kFailed:
      return power_.idle_watts;
    case MachineState::kOperational:
      return power_.idle_watts +
             (power_.max_watts - power_.idle_watts) * utilization();
  }
  return 0.0;
}

void Machine::set_state(MachineState s) {
  state_ = s;
  count_mutation();
}

void Machine::fail() {
  state_ = MachineState::kFailed;
  used_ = ResourceVector{};
  live_allocations_ = 0;
  count_mutation();
}

void Machine::repair() {
  state_ = MachineState::kOperational;
  used_ = ResourceVector{};
  live_allocations_ = 0;
  count_mutation();
}

}  // namespace mcs::infra
