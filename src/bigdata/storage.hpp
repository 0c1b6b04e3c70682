// Storage Engine layer of the Fig. 1 big-data reference architecture.
//
// A HDFS-like block store over the datacenter: datasets split into fixed
// blocks, each replicated rack-aware (first replica on a random machine,
// second in the same rack, third in another rack). The MapReduce engine
// asks it for placement and locality, which drives the paper's point that
// lower layers "must perform well to offer good non-functional properties".
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "infra/topology.hpp"
#include "sim/random.hpp"

namespace mcs::bigdata {

using DatasetId = std::uint32_t;

struct Block {
  std::uint64_t id = 0;
  double size_mb = 0.0;
  std::vector<infra::MachineId> replicas;
};

enum class Locality { kLocal, kRackLocal, kRemote };

[[nodiscard]] std::string to_string(Locality l);

class StorageEngine {
 public:
  struct Config {
    std::size_t replication = 3;
  };
  /// Cross-rack read bandwidth in MB/s (the oversubscribed core); the
  /// MapReduce shuffle crosses the same core.
  static constexpr double kRemoteMbps = 40.0;

  StorageEngine(infra::Datacenter& dc, Config config, sim::Rng rng);

  /// Splits `size_mb` into blocks and places replicas rack-aware.
  DatasetId store(const std::string& name, double size_mb);

  [[nodiscard]] const std::vector<Block>& blocks(DatasetId id) const;

  /// Locality class of reading `block` from `machine`.
  [[nodiscard]] Locality locality(const Block& block,
                                  infra::MachineId machine) const;

  /// Seconds to read the block from the given machine (best replica).
  [[nodiscard]] double read_seconds(const Block& block,
                                    infra::MachineId machine) const;

 private:
  infra::Datacenter& dc_;
  Config config_;
  sim::Rng rng_;
  std::uint64_t next_block_ = 0;
  std::vector<std::vector<Block>> datasets_;
};

}  // namespace mcs::bigdata
