// Datacenter topology: racks, datacenters, geo-distributed federations.
//
// The rack grouping is load-bearing: space-correlated failures [26] strike
// rack-sized machine groups, and locality-aware placement (bigdata) prefers
// rack-local block replicas. Federation (C10) is a set of datacenters, used
// by the geo-distributed experiments.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "infra/machine.hpp"

namespace mcs::infra {

/// A datacenter: machines organized into racks.
class Datacenter {
 public:
  Datacenter(std::string name, std::string region);

  const std::string& name() const { return name_; }
  const std::string& region() const { return region_; }

  /// Adds a machine to the given rack (racks are created on demand).
  Machine& add_machine(std::string name, ResourceVector capacity,
                       double speed_factor, std::size_t rack,
                       PowerModel power = {});

  /// Convenience: builds `racks x per_rack` homogeneous machines.
  void add_uniform_racks(std::size_t racks, std::size_t per_rack,
                         ResourceVector capacity, double speed_factor,
                         PowerModel power = {});

  [[nodiscard]] std::size_t machine_count() const { return machines_.size(); }
  [[nodiscard]] std::size_t rack_count() const;

  /// Changes to the fleet so far: one per add_machine and one per
  /// allocate, release, fail, repair or set_state of any of its machines.
  /// A component that mirrors machine state compares it with the count of
  /// changes it made itself, and re-reads the fleet when they differ.
  [[nodiscard]] std::uint64_t mutations() const { return *mutations_; }

  [[nodiscard]] Machine& machine(MachineId id);
  [[nodiscard]] const Machine& machine(MachineId id) const;
  [[nodiscard]] std::vector<Machine*> machines();
  [[nodiscard]] std::vector<const Machine*> machines() const;

  /// Machines in one rack (for correlated-failure injection).
  [[nodiscard]] std::vector<MachineId> rack_members(std::size_t rack) const;
  [[nodiscard]] std::size_t rack_of(MachineId id) const;

  // --- topology zones (C4): named machine groups the scheduler's label
  // filters select over (failure domains, accelerator pools, tiers). Every
  // machine starts in the anonymous default zone "".
  void set_zone(MachineId id, const std::string& zone);
  [[nodiscard]] const std::string& zone_of(MachineId id) const;

  /// Aggregate capacity over operational machines.
  [[nodiscard]] ResourceVector total_capacity() const;
  /// Instantaneous power draw across the floor (watts).
  [[nodiscard]] double power_watts() const;

 private:
  std::string name_;
  std::string region_;
  std::vector<std::unique_ptr<Machine>> machines_;
  /// On the heap, so the machines' pointers to it survive a move of the
  /// Datacenter (datacenters are returned and stored by value).
  std::unique_ptr<std::uint64_t> mutations_ = std::make_unique<std::uint64_t>(0);
  std::vector<std::size_t> rack_of_;  // indexed by MachineId
  /// Zone names interned to dense ids; zone_id_of_ indexed by MachineId
  /// (0 = the default zone "").
  std::vector<std::uint32_t> zone_id_of_;
  std::vector<std::string> zone_names_{""};
  std::map<std::string, std::uint32_t> zone_ids_{{"", 0}};
};

/// A federation of datacenters (C10: "geo-distributed, federated, multi-DC
/// operation").
class Federation {
 public:
  explicit Federation(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Datacenter& add_datacenter(std::string name, std::string region);

  [[nodiscard]] std::size_t size() const { return datacenters_.size(); }

  /// Total machines across all sites.
  [[nodiscard]] std::size_t machine_count() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Datacenter>> datacenters_;
};

}  // namespace mcs::infra
