#include "bigdata/storage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mcs::bigdata {

namespace {
constexpr double kBlockMb = 128.0;
constexpr double kDiskMbps = 200.0;  ///< local read bandwidth
constexpr double kRackMbps = 120.0;  ///< rack-local read bandwidth
}  // namespace

std::string to_string(Locality l) {
  switch (l) {
    case Locality::kLocal: return "local";
    case Locality::kRackLocal: return "rack-local";
    case Locality::kRemote: return "remote";
  }
  return "unknown";
}

StorageEngine::StorageEngine(infra::Datacenter& dc, Config config,
                             sim::Rng rng)
    : dc_(dc), config_(config), rng_(rng) {
  if (dc_.machine_count() == 0) {
    throw std::invalid_argument("StorageEngine: empty datacenter");
  }
  if (config_.replication == 0) {
    throw std::invalid_argument("StorageEngine: bad config");
  }
}

DatasetId StorageEngine::store(const std::string& name, double size_mb) {
  (void)name;
  if (size_mb <= 0.0) throw std::invalid_argument("store: size <= 0");
  const auto n_machines = static_cast<std::int64_t>(dc_.machine_count());
  const auto n_blocks = static_cast<std::size_t>(
      std::ceil(size_mb / kBlockMb));
  std::vector<Block> blocks;
  blocks.reserve(n_blocks);
  double remaining = size_mb;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    Block block;
    block.id = next_block_++;
    block.size_mb = std::min(kBlockMb, remaining);
    remaining -= block.size_mb;

    // Replica 1: random machine.
    const auto first =
        static_cast<infra::MachineId>(rng_.uniform_int(0, n_machines - 1));
    block.replicas.push_back(first);
    // Replica 2: same rack, different machine (if possible).
    if (config_.replication >= 2) {
      const auto rack = dc_.rack_members(dc_.rack_of(first));
      for (std::size_t attempt = 0; attempt < 8 && block.replicas.size() < 2;
           ++attempt) {
        const auto pick = rack[static_cast<std::size_t>(rng_.uniform_int(
            0, static_cast<std::int64_t>(rack.size()) - 1))];
        if (pick != first) block.replicas.push_back(pick);
      }
      if (block.replicas.size() < 2 && rack.size() == 1) {
        // Single-machine rack: fall back to any other machine.
        const auto pick = static_cast<infra::MachineId>(
            rng_.uniform_int(0, n_machines - 1));
        if (pick != first) block.replicas.push_back(pick);
      }
    }
    // Replicas 3+: other racks.
    while (block.replicas.size() < config_.replication &&
           block.replicas.size() < dc_.machine_count()) {
      const auto pick =
          static_cast<infra::MachineId>(rng_.uniform_int(0, n_machines - 1));
      const bool duplicate = std::find(block.replicas.begin(),
                                       block.replicas.end(),
                                       pick) != block.replicas.end();
      const bool same_rack = dc_.rack_of(pick) == dc_.rack_of(first);
      if (!duplicate && (!same_rack || dc_.rack_count() <= 1)) {
        block.replicas.push_back(pick);
      }
    }
    blocks.push_back(std::move(block));
  }
  datasets_.push_back(std::move(blocks));
  return static_cast<DatasetId>(datasets_.size() - 1);
}

const std::vector<Block>& StorageEngine::blocks(DatasetId id) const {
  if (id >= datasets_.size()) throw std::out_of_range("StorageEngine::blocks");
  return datasets_[id];
}

Locality StorageEngine::locality(const Block& block,
                                 infra::MachineId machine) const {
  for (infra::MachineId r : block.replicas) {
    if (r == machine) return Locality::kLocal;
  }
  for (infra::MachineId r : block.replicas) {
    if (dc_.rack_of(r) == dc_.rack_of(machine)) return Locality::kRackLocal;
  }
  return Locality::kRemote;
}

double StorageEngine::read_seconds(const Block& block,
                                   infra::MachineId machine) const {
  switch (locality(block, machine)) {
    case Locality::kLocal:
      return block.size_mb / kDiskMbps;
    case Locality::kRackLocal:
      return block.size_mb / kRackMbps;
    case Locality::kRemote:
      return block.size_mb / kRemoteMbps;
  }
  return 0.0;
}

}  // namespace mcs::bigdata
