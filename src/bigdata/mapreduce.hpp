// The MapReduce sub-ecosystem of Fig. 1: Programming Model + Execution
// Engine layers.
//
// Two cooperating pieces:
//  1. FunctionalMapReduce — real map/shuffle/reduce over in-memory records
//     (the Programming Model; used by the dataflow language and the gaming
//     analytics pipeline, and for correctness tests such as wordcount).
//  2. MapReduceSimulation — the Execution Engine timing model on a
//     simulated cluster: slot scheduling, locality-aware map placement
//     against the StorageEngine, straggler noise, optional speculative
//     execution, a shuffle phase, and reduce tasks.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bigdata/storage.hpp"
#include "sim/simulator.hpp"

namespace mcs::bigdata {

// ---- 1. the programming model (functional) ------------------------------------

/// Classic (key, value) MapReduce over in-memory data.
template <typename In, typename K, typename V>
class FunctionalMapReduce {
 public:
  using MapFn = std::function<std::vector<std::pair<K, V>>(const In&)>;
  using ReduceFn = std::function<V(const K&, const std::vector<V>&)>;

  FunctionalMapReduce(MapFn map, ReduceFn reduce)
      : map_(std::move(map)), reduce_(std::move(reduce)) {}

  [[nodiscard]] std::map<K, V> run(const std::vector<In>& records) const {
    // Map.
    std::map<K, std::vector<V>> groups;  // shuffle: group by key
    for (const In& r : records) {
      for (auto& [k, v] : map_(r)) {
        groups[k].push_back(std::move(v));
      }
    }
    // Reduce.
    std::map<K, V> out;
    for (const auto& [k, vs] : groups) {
      out.emplace(k, reduce_(k, vs));
    }
    return out;
  }

 private:
  MapFn map_;
  ReduceFn reduce_;
};

/// Wordcount — the canonical correctness probe.
[[nodiscard]] std::map<std::string, std::uint64_t> word_count(
    const std::vector<std::string>& lines);

// ---- 2. the execution engine (simulated) -----------------------------------------

struct MapReduceJobConfig {
  DatasetId dataset = 0;
  /// Straggler spread: map runtimes are multiplied by lognormal(1, cv).
  double straggler_cv = 0.3;
  /// Launch a backup copy for tasks running well past the median of
  /// completed tasks (speculative execution).
  bool speculative_execution = false;
};

struct MapReduceStats {
  double makespan_seconds = 0.0;
  double map_phase_seconds = 0.0;
  double shuffle_seconds = 0.0;
  double reduce_phase_seconds = 0.0;
  std::size_t map_tasks = 0;
  std::size_t speculative_copies = 0;
  std::size_t local_reads = 0;
  std::size_t rack_reads = 0;
  std::size_t remote_reads = 0;
  [[nodiscard]] double locality_fraction() const {
    const double total =
        static_cast<double>(local_reads + rack_reads + remote_reads);
    return total == 0.0 ? 0.0 : static_cast<double>(local_reads) / total;
  }
};

class MapReduceSimulation {
 public:
  MapReduceSimulation(infra::Datacenter& dc, StorageEngine& storage,
                      sim::Rng rng)
      : dc_(dc), storage_(storage), rng_(rng) {}

  /// Runs one job to completion on a private simulator; placement prefers
  /// replica-holding machines (delay scheduling, one heartbeat).
  [[nodiscard]] MapReduceStats run(const MapReduceJobConfig& config);

 private:
  infra::Datacenter& dc_;
  StorageEngine& storage_;
  sim::Rng rng_;
};

}  // namespace mcs::bigdata
