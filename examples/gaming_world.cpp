// Online gaming, all four Fig. 4 functions in one run (use-case §6.3):
// a virtual world absorbing a player flash crowd, the analytics pipeline
// digesting the event stream, the PCG service keeping content fresh, and
// the social meta-gaming layer mining co-play communities.
//
//   $ ./examples/gaming_world [seed]
#include <cstdint>
#include <iostream>
#include <optional>
#include <string_view>

#include "core/parse.hpp"
#include "gaming/analytics.hpp"
#include "gaming/pcg.hpp"
#include "gaming/social.hpp"
#include "gaming/virtual_world.hpp"
#include "metrics/report.hpp"

int main(int argc, char** argv) {
  using namespace mcs;
  std::uint64_t seed = 3;
  if (argc > 1 && !core::parse_whole(std::string_view(argv[1]), seed)) {
    std::cerr << "usage: gaming_world [seed]\n";
    return 2;
  }
  metrics::print_banner(std::cout, "Online gaming: the four Fig. 4 functions");
  metrics::print_kv(std::cout, "seed", std::to_string(seed));

  // --- Virtual World: a launch-day flash crowd ------------------------------
  sim::Simulator sim;
  gaming::WorldConfig world_config;
  world_config.zone_rows = 6;
  world_config.zone_cols = 6;
  gaming::VirtualWorld world(sim, world_config, sim::Rng(seed));
  world.start(2 * sim::kHour);
  // Players pour in over the first hour, then churn out.
  for (int minute = 0; minute < 60; ++minute) {
    sim.schedule_at(minute * sim::kMinute, [&world] { world.join(40); });
  }
  for (int minute = 60; minute < 120; ++minute) {
    sim.schedule_at(minute * sim::kMinute, [&world] { world.leave(25); });
  }

  // --- Gaming Analytics: events stream into windowed jobs -------------------
  gaming::AnalyticsPipeline analytics(5 * sim::kMinute);
  sim::Rng event_rng(seed + 1);
  const char* kActions[] = {"kill", "trade", "chat", "quest", "craft"};
  const sim::SimTime emit_every = 10 * sim::kSecond;
  sim.schedule_recurring(emit_every, [&]() -> std::optional<sim::SimTime> {
    const std::size_t population = world.population();
    const auto burst = static_cast<std::size_t>(population / 10 + 1);
    for (std::size_t i = 0; i < burst; ++i) {
      analytics.ingest(gaming::GameEvent{
          sim.now(),
          static_cast<std::uint32_t>(event_rng.uniform_int(0, 2399)),
          kActions[event_rng.zipf(5, 1.3)]});
    }
    if (sim.now() >= 2 * sim::kHour) return std::nullopt;
    return emit_every;
  });

  sim.run_until();

  metrics::Table world_table({"virtual world metric", "value"});
  world_table.add_row({"peak population",
                       metrics::Table::num(world.stats().population.max(), 0)});
  world_table.add_row(
      {"peak servers",
       metrics::Table::num(world.stats().servers_used.max(), 0)});
  world_table.add_row(
      {"mean servers",
       metrics::Table::num(world.stats().servers_used.mean(), 1)});
  world_table.add_row({"QoS (non-overloaded ticks)",
                       metrics::Table::pct(world.stats().qos())});
  world_table.print(std::cout);

  const auto reports = analytics.flush(2 * sim::kHour);
  metrics::Table an_table({"analytics window", "events", "players",
                           "events/s", "top action"});
  for (std::size_t i = 0; i < reports.size(); i += 6) {  // every 30 min
    const auto& r = reports[i];
    an_table.add_row({metrics::Table::num(sim::to_seconds(r.window_start) / 60.0, 0) + " min",
                      std::to_string(r.events),
                      std::to_string(r.distinct_players),
                      metrics::Table::num(r.events_per_second, 1),
                      r.top_action});
  }
  an_table.print(std::cout);

  // --- Procedural Content Generation: fresh puzzles in a difficulty band ----
  sim::Rng pcg_rng(seed + 2);
  const auto pcg = gaming::generate_puzzles(20, 8, 16, pcg_rng);
  metrics::Table pcg_table({"PCG metric", "value"});
  pcg_table.add_row({"instances requested", "20"});
  pcg_table.add_row({"instances delivered",
                     std::to_string(pcg.instances.size())});
  pcg_table.add_row({"candidates generated",
                     std::to_string(pcg.stats.generated)});
  pcg_table.add_row({"yield", metrics::Table::pct(pcg.stats.yield())});
  double mean_difficulty = 0.0;
  for (const auto& p : pcg.instances) {
    mean_difficulty += static_cast<double>(p.difficulty);
  }
  if (!pcg.instances.empty()) {
    mean_difficulty /= static_cast<double>(pcg.instances.size());
  }
  pcg_table.add_row({"mean optimal difficulty",
                     metrics::Table::num(mean_difficulty, 1)});
  pcg_table.print(std::cout);

  // --- Social Meta-Gaming: communities from co-play -------------------------
  sim::Rng social_rng(seed + 3);
  const auto sessions =
      gaming::synthetic_sessions(2400, 40, 4000, 5, 0.15, social_rng);
  const auto social_graph = gaming::interaction_graph(sessions, 2400);
  const auto social = gaming::analyze_social_structure(social_graph, sessions);
  metrics::Table soc_table({"social metric", "value"});
  soc_table.add_row({"players", "2400"});
  soc_table.add_row({"sessions analyzed", std::to_string(sessions.size())});
  soc_table.add_row({"communities found", std::to_string(social.communities)});
  soc_table.add_row({"largest community",
                     std::to_string(social.largest_community)});
  soc_table.add_row({"mean tie strength",
                     metrics::Table::num(social.mean_tie_strength)});
  soc_table.add_row({"intra-community match pairs",
                     metrics::Table::pct(social.intra_community_fraction)});
  soc_table.print(std::cout);
  return 0;
}
