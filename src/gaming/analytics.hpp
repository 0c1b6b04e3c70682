// Gaming Analytics function of Fig. 4: a windowed event pipeline over the
// big-data stack (§6.3 names Twitch/Blizzard/Riot outsourcing exactly this
// processing to data ecosystems — here the dataflow layer of Fig. 1 is the
// service, closing the loop between the two reference architectures).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bigdata/dataflow.hpp"
#include "sim/simulator.hpp"

namespace mcs::gaming {

struct GameEvent {
  sim::SimTime at = 0;
  std::uint32_t player = 0;
  std::string action;  ///< "kill", "trade", "chat", ...
};

struct WindowReport {
  sim::SimTime window_start = 0;
  sim::SimTime window_end = 0;
  std::size_t events = 0;
  std::size_t distinct_players = 0;
  std::string top_action;
  double events_per_second = 0.0;
  /// Per-action counts (dataflow group_sum output).
  std::vector<bigdata::Record> action_counts;
};

/// Buffers events and aggregates them per fixed window through a dataflow
/// plan (map -> group_sum) — one analytics "job" per window.
class AnalyticsPipeline {
 public:
  explicit AnalyticsPipeline(sim::SimTime window) : window_(window) {}

  void ingest(GameEvent event);

  /// Flushes all complete windows up to `now` and returns their reports.
  [[nodiscard]] std::vector<WindowReport> flush(sim::SimTime now);

  // mcs-lint: allow(R1) — AnalyticsTest.IncompleteWindowStaysBuffered
  // (tests/gaming_test.cpp) checks what a flush leaves behind.
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }
  // mcs-lint: allow(R1) — AnalyticsTest.WindowsAggregateEvents
  // (tests/gaming_test.cpp) counts the flushed windows.
  [[nodiscard]] std::size_t windows_processed() const { return windows_; }
  [[nodiscard]] std::size_t events_processed() const { return processed_; }

 private:
  [[nodiscard]] WindowReport aggregate(sim::SimTime start, sim::SimTime end,
                                       const std::vector<GameEvent>& events) const;

  sim::SimTime window_;
  std::vector<GameEvent> buffer_;
  sim::SimTime next_window_start_ = 0;
  std::size_t windows_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace mcs::gaming
