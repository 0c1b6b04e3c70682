#include "gaming/virtual_world.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace mcs::gaming {

VirtualWorld::VirtualWorld(sim::Simulator& sim, WorldConfig config,
                           sim::Rng rng)
    : sim_(sim), config_(config), rng_(rng) {
  if (config_.zone_rows == 0 || config_.zone_cols == 0 ||
      config_.server_capacity <= 0.0 || config_.tick_interval <= 0) {
    throw std::invalid_argument("VirtualWorld: bad config");
  }
  zone_pop_.assign(config_.zone_rows * config_.zone_cols, 0);
}

void VirtualWorld::start(sim::SimTime until) {
  sim_.schedule_recurring(
      config_.tick_interval, [this, until]() -> std::optional<sim::SimTime> {
        tick();
        if (sim::saturating_add(sim_.now(), config_.tick_interval) > until) {
          return std::nullopt;
        }
        return config_.tick_interval;
      });
}

void VirtualWorld::join(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto zone = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(zone_pop_.size()) - 1));
    ++zone_pop_[zone];
  }
}

void VirtualWorld::leave(std::size_t count) {
  for (std::size_t i = 0; i < count && population() > 0; ++i) {
    // Remove from a population-weighted random zone.
    std::vector<double> weights(zone_pop_.size());
    for (std::size_t z = 0; z < zone_pop_.size(); ++z) {
      weights[z] = static_cast<double>(zone_pop_[z]);
    }
    const std::size_t zone = rng_.weighted_index(weights);
    if (zone_pop_[zone] > 0) --zone_pop_[zone];
  }
}

std::size_t VirtualWorld::population() const {
  std::size_t total = 0;
  for (std::size_t p : zone_pop_) total += p;
  return total;
}

double VirtualWorld::zone_load(std::size_t zone) const {
  if (zone >= zone_pop_.size()) throw std::out_of_range("zone_load");
  const auto n = static_cast<double>(zone_pop_[zone]);
  return config_.load_per_player * n +
         config_.load_per_pair * n * (n - 1.0) / 2.0;
}

std::size_t VirtualWorld::servers_needed() const {
  // Greedy first-fit-decreasing consolidation of zone loads onto servers.
  std::vector<double> loads;
  for (std::size_t z = 0; z < zone_pop_.size(); ++z) {
    if (zone_pop_[z] > 0) loads.push_back(zone_load(z));
  }
  std::sort(loads.rbegin(), loads.rend());
  std::vector<double> servers;
  for (double load : loads) {
    // A zone hotter than one server still needs a dedicated (overloaded)
    // server — the seamless-world limit the paper describes.
    bool placed = false;
    for (double& s : servers) {
      if (s + load <= config_.server_capacity) {
        s += load;
        placed = true;
        break;
      }
    }
    if (!placed) servers.push_back(load);
  }
  return servers.size();
}

void VirtualWorld::move_players() {
  const std::size_t rows = config_.zone_rows;
  const std::size_t cols = config_.zone_cols;
  std::vector<std::size_t> moves_out(zone_pop_.size(), 0);
  std::vector<std::size_t> moves_in(zone_pop_.size(), 0);
  for (std::size_t z = 0; z < zone_pop_.size(); ++z) {
    const std::size_t r = z / cols;
    const std::size_t c = z % cols;
    for (std::size_t p = 0; p < zone_pop_[z]; ++p) {
      if (!rng_.chance(config_.move_probability)) continue;
      // Pick an adjacent zone uniformly.
      std::vector<std::size_t> adjacent;
      if (r > 0) adjacent.push_back(z - cols);
      if (r + 1 < rows) adjacent.push_back(z + cols);
      if (c > 0) adjacent.push_back(z - 1);
      if (c + 1 < cols) adjacent.push_back(z + 1);
      if (adjacent.empty()) continue;
      const std::size_t target = adjacent[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(adjacent.size()) - 1))];
      ++moves_out[z];
      ++moves_in[target];
    }
  }
  for (std::size_t z = 0; z < zone_pop_.size(); ++z) {
    zone_pop_[z] = zone_pop_[z] - moves_out[z] + moves_in[z];
  }
}

void VirtualWorld::tick() {
  move_players();
  ++stats_.ticks;
  stats_.population.add(static_cast<double>(population()));
  const std::size_t servers = servers_needed();
  stats_.servers_used.add(static_cast<double>(servers));
  std::size_t max_pop = 0;
  bool overloaded = false;
  for (std::size_t z = 0; z < zone_pop_.size(); ++z) {
    max_pop = std::max(max_pop, zone_pop_[z]);
    if (zone_load(z) > config_.server_capacity) overloaded = true;
  }
  stats_.max_zone_population.add(static_cast<double>(max_pop));
  if (overloaded) ++stats_.overloaded_ticks;
}

}  // namespace mcs::gaming
