// Virtual World function of the Fig. 4 online-gaming architecture (§6.3).
//
// A zoned virtual world: players inhabit zones of a grid map and roam
// between adjacent zones; a zone's server load grows superlinearly with
// its population (pairwise interactions), which is exactly why "virtual
// worlds ... cannot host more than a few thousands of players in the same
// contiguous virtual-space". Zone servers are provisioned elastically and
// zones are consolidated onto servers greedily; ticks that exceed server
// capacity degrade quality of service.
#pragma once

#include <vector>

#include "metrics/elasticity.hpp"
#include "metrics/stats.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mcs::gaming {

struct WorldConfig {
  std::size_t zone_rows = 4;
  std::size_t zone_cols = 4;
  /// Load units: per player plus per interacting pair within a zone.
  double load_per_player = 1.0;
  double load_per_pair = 0.02;
  /// One server sustains this much load per tick at full QoS.
  double server_capacity = 400.0;
  sim::SimTime tick_interval = 5 * sim::kSecond;
  /// Probability a player moves to an adjacent zone each tick.
  double move_probability = 0.1;
};

struct WorldStats {
  std::size_t ticks = 0;
  metrics::Accumulator population;
  metrics::Accumulator servers_used;
  metrics::Accumulator max_zone_population;
  std::size_t overloaded_ticks = 0;  ///< ticks where some server exceeded capacity
  /// Fraction of ticks at full QoS.
  [[nodiscard]] double qos() const {
    return ticks == 0 ? 1.0
                      : 1.0 - static_cast<double>(overloaded_ticks) /
                                  static_cast<double>(ticks);
  }
};

class VirtualWorld {
 public:
  VirtualWorld(sim::Simulator& sim, WorldConfig config, sim::Rng rng);

  /// Starts ticking until `until`.
  void start(sim::SimTime until);

  /// Player lifecycle (players spawn in a random zone).
  void join(std::size_t count = 1);
  void leave(std::size_t count = 1);

  [[nodiscard]] std::size_t population() const;
  /// Servers needed right now (greedy consolidation of zone loads).
  [[nodiscard]] std::size_t servers_needed() const;
  [[nodiscard]] double zone_load(std::size_t zone) const;

  [[nodiscard]] const WorldStats& stats() const { return stats_; }

 private:
  void tick();
  void move_players();

  sim::Simulator& sim_;
  WorldConfig config_;
  sim::Rng rng_;
  std::vector<std::size_t> zone_pop_;
  WorldStats stats_;
};

}  // namespace mcs::gaming
