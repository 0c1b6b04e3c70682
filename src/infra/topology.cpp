#include "infra/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace mcs::infra {

Datacenter::Datacenter(std::string name, std::string region)
    : name_(std::move(name)), region_(std::move(region)) {}

Machine& Datacenter::add_machine(std::string name, ResourceVector capacity,
                                 double speed_factor, std::size_t rack,
                                 PowerModel power) {
  const auto id = static_cast<MachineId>(machines_.size());
  machines_.push_back(std::make_unique<Machine>(id, std::move(name), capacity,
                                                speed_factor, power));
  machines_.back()->mutations_ = mutations_.get();
  ++*mutations_;
  rack_of_.push_back(rack);
  zone_id_of_.push_back(0);
  return *machines_.back();
}

void Datacenter::set_zone(MachineId id, const std::string& zone) {
  if (id >= zone_id_of_.size()) throw std::out_of_range("Datacenter::set_zone");
  const auto [it, inserted] = zone_ids_.try_emplace(
      zone, static_cast<std::uint32_t>(zone_names_.size()));
  if (inserted) zone_names_.push_back(zone);
  zone_id_of_[id] = it->second;
}

const std::string& Datacenter::zone_of(MachineId id) const {
  if (id >= zone_id_of_.size()) throw std::out_of_range("Datacenter::zone_of");
  return zone_names_[zone_id_of_[id]];
}

void Datacenter::add_uniform_racks(std::size_t racks, std::size_t per_rack,
                                   ResourceVector capacity,
                                   double speed_factor, PowerModel power) {
  for (std::size_t r = 0; r < racks; ++r) {
    for (std::size_t m = 0; m < per_rack; ++m) {
      add_machine(name_ + "-r" + std::to_string(r) + "-m" + std::to_string(m),
                  capacity, speed_factor, r, power);
    }
  }
}

std::size_t Datacenter::rack_count() const {
  if (rack_of_.empty()) return 0;
  return *std::max_element(rack_of_.begin(), rack_of_.end()) + 1;
}

Machine& Datacenter::machine(MachineId id) {
  if (id >= machines_.size()) throw std::out_of_range("Datacenter::machine");
  return *machines_[id];
}

const Machine& Datacenter::machine(MachineId id) const {
  if (id >= machines_.size()) throw std::out_of_range("Datacenter::machine");
  return *machines_[id];
}

std::vector<Machine*> Datacenter::machines() {
  std::vector<Machine*> out;
  out.reserve(machines_.size());
  for (auto& m : machines_) out.push_back(m.get());
  return out;
}

std::vector<const Machine*> Datacenter::machines() const {
  std::vector<const Machine*> out;
  out.reserve(machines_.size());
  for (const auto& m : machines_) out.push_back(m.get());
  return out;
}

std::vector<MachineId> Datacenter::rack_members(std::size_t rack) const {
  std::vector<MachineId> out;
  for (MachineId id = 0; id < machines_.size(); ++id) {
    if (rack_of_[id] == rack) out.push_back(id);
  }
  return out;
}

std::size_t Datacenter::rack_of(MachineId id) const {
  if (id >= rack_of_.size()) throw std::out_of_range("Datacenter::rack_of");
  return rack_of_[id];
}

ResourceVector Datacenter::total_capacity() const {
  ResourceVector total;
  for (const auto& m : machines_) {
    if (m->usable()) total += m->capacity();
  }
  return total;
}

double Datacenter::power_watts() const {
  double total = 0.0;
  for (const auto& m : machines_) total += m->power_watts();
  return total;
}

Datacenter& Federation::add_datacenter(std::string name, std::string region) {
  datacenters_.push_back(
      std::make_unique<Datacenter>(std::move(name), std::move(region)));
  return *datacenters_.back();
}

std::size_t Federation::machine_count() const {
  std::size_t n = 0;
  for (const auto& d : datacenters_) n += d->machine_count();
  return n;
}

}  // namespace mcs::infra
