// Differential test for the event queue (one hierarchical timing wheel over
// the whole clock, DESIGN.md §12): randomized schedule/cancel/advance
// sequences executed on the real Simulator must fire events in exactly the
// order of a reference model — an std::set over (at, seq) — which is by
// construction the documented total order. Covers long monotone runs,
// same-timestamp bursts, lazy-cancelled tombstones, far-future events on
// every wheel level up to kTimeInfinity, clock jumps across high wheel
// digits, and scheduling from inside running callbacks (cursor resync).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace mcs;

/// Drives a Simulator and a reference model in lockstep. Event ids equal
/// the kernel's internal insertion sequence (every schedule goes through
/// this harness), so comparing fired id sequences compares (at, seq) order
/// bit-for-bit.
class QueueDiff {
 public:
  explicit QueueDiff(bool reserve) {
    if (reserve) sim_.reserve_events(4096);
  }

  std::uint64_t schedule(sim::SimTime at) {
    const std::uint64_t id = next_id_++;
    model_.emplace(at, id);
    at_of_.push_back(at);
    handles_.push_back(
        sim_.schedule_at(at, [this, id] { fired_.push_back(id); }));
    return id;
  }

  /// An event whose callback schedules a follow-up chain from inside the
  /// run — exercises arm() while the wheel cursor tracks now().
  std::uint64_t schedule_spawning(sim::SimTime at, sim::SimTime child_delta,
                                  int depth) {
    const std::uint64_t id = next_id_++;
    model_.emplace(at, id);
    at_of_.push_back(at);
    handles_.push_back(
        sim_.schedule_at(at, [this, id, child_delta, depth] {
          fired_.push_back(id);
          if (depth > 0) {
            schedule_spawning(sim_.now() + child_delta, child_delta,
                              depth - 1);
          }
        }));
    return id;
  }

  /// Cancels by id; the simulator and the model must agree on whether the
  /// event was still pending.
  void cancel(std::uint64_t id) {
    const bool sim_ok = sim_.cancel(handles_[id]);
    const bool model_ok = model_.erase({at_of_[id], id}) > 0;
    EXPECT_EQ(sim_ok, model_ok) << "cancel divergence for id " << id;
  }

  /// Runs to `t` and checks the fired sequence against the model's
  /// (at, seq) order. Children spawned during the run entered the model at
  /// fire time, so draining the model afterwards yields the same global
  /// order the kernel must produce.
  void advance(sim::SimTime t) {
    fired_.clear();
    const std::size_t ran = sim_.run_until(t);
    std::vector<std::uint64_t> expected;
    while (!model_.empty() && model_.begin()->first <= t) {
      expected.push_back(model_.begin()->second);
      model_.erase(model_.begin());
    }
    ASSERT_EQ(fired_, expected);
    ASSERT_EQ(ran, expected.size());
  }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] std::uint64_t scheduled() const { return next_id_; }

 private:
  sim::Simulator sim_;
  std::set<std::pair<sim::SimTime, std::uint64_t>> model_;
  std::vector<sim::SimTime> at_of_;
  std::vector<sim::EventHandle> handles_;
  std::vector<std::uint64_t> fired_;
  std::uint64_t next_id_ = 0;
};

TEST(QueueDifferential, RandomOpsMatchReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    QueueDiff q(/*reserve=*/seed % 2 == 0);
    sim::SimTime now = 0;
    for (int phase = 0; phase < 40; ++phase) {
      const std::int64_t kind = rng.uniform_int(0, 3);
      const std::int64_t n = rng.uniform_int(8, 96);
      if (kind == 0) {
        // Monotone run: each insert at or after the previous one, the shape
        // of arrival streams and self-scheduling chains.
        sim::SimTime base = now;
        for (std::int64_t i = 0; i < n; ++i) {
          base += rng.uniform_int(0, 1000);
          q.schedule(base);
        }
      } else if (kind == 1) {
        // Uniform scatter over ~4 s: the wheel band, all levels.
        for (std::int64_t i = 0; i < n; ++i) {
          q.schedule(now + rng.uniform_int(0, std::int64_t{1} << 22));
        }
      } else if (kind == 2) {
        // Same-timestamp burst: ties must fire in scheduling order.
        const sim::SimTime t = now + rng.uniform_int(0, std::int64_t{1} << 20);
        for (std::int64_t i = 0; i < n; ++i) q.schedule(t);
      } else {
        // Far future: 2^37..2^38 µs out, on wheel level 6.
        for (std::int64_t i = 0; i < n; ++i) {
          q.schedule(now + (std::int64_t{1} << 37) +
                     rng.uniform_int(0, std::int64_t{1} << 37));
        }
      }
      // Cancel a handful of arbitrary ids; already-fired ones must report
      // false identically on both sides.
      const std::int64_t cancels = rng.uniform_int(0, 16);
      for (std::int64_t i = 0; i < cancels; ++i) {
        q.cancel(static_cast<std::uint64_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(q.scheduled()) - 1)));
      }
      const std::int64_t jump = rng.uniform_int(0, std::int64_t{1} << 23);
      now += jump;
      q.advance(now);
    }
    q.advance(sim::kTimeInfinity);
  }
}

TEST(QueueDifferential, SameTimestampBurstsPreserveSchedulingOrder) {
  QueueDiff q(/*reserve=*/false);
  for (int round = 0; round < 8; ++round) {
    const sim::SimTime t = 1000 * (round + 1);
    for (int i = 0; i < 200; ++i) q.schedule(t);
    // Cancel every third of the burst: tombstones interleave with live
    // entries at one timestamp inside a single level-0 bucket.
    for (std::uint64_t id = q.scheduled() - 200; id < q.scheduled(); id += 3) {
      q.cancel(id);
    }
  }
  q.advance(sim::kTimeInfinity);
}

TEST(QueueDifferential, SpawningCallbacksMatchReference) {
  sim::Rng rng(99);
  QueueDiff q(/*reserve=*/false);
  for (int i = 0; i < 64; ++i) {
    q.schedule_spawning(rng.uniform_int(0, 1 << 20),
                        /*child_delta=*/rng.uniform_int(1, 1 << 18),
                        /*depth=*/static_cast<int>(rng.uniform_int(0, 12)));
  }
  // Advance in small steps so chains straddle run_until boundaries (the
  // trailing now_ = until leaves the wheel cursor behind until the next
  // insert resyncs it).
  for (sim::SimTime t = 1 << 16; t < (1 << 22); t += 1 << 16) q.advance(t);
  q.advance(sim::kTimeInfinity);
}

TEST(QueueDifferential, WheelWindowCrossingsAndFarOverflow) {
  sim::Rng rng(7);
  QueueDiff q(/*reserve=*/true);
  sim::SimTime now = 0;
  for (int round = 0; round < 6; ++round) {
    // Near band (low wheel levels), mid band (levels up to 5), far band
    // (level 6).
    for (int i = 0; i < 50; ++i) q.schedule(now + rng.uniform_int(0, 1 << 12));
    for (int i = 0; i < 50; ++i) {
      q.schedule(now + rng.uniform_int(0, std::int64_t{1} << 35));
    }
    for (int i = 0; i < 50; ++i) {
      q.schedule(now + (std::int64_t{1} << 36) +
                 rng.uniform_int(0, std::int64_t{1} << 40));
    }
    // Jump the clock across several wheel-digit boundaries (sometimes past
    // the whole window, emptying the wheel into execution).
    now += (round % 2 == 0) ? (std::int64_t{1} << 24)
                            : (std::int64_t{1} << 38);
    q.advance(now);
  }
  // The top of the clock, wheel levels 7-10: events spread over bits 42-62
  // with kTimeInfinity itself among them, and a third of them cancelled so
  // tombstones cascade down from every high level.
  std::vector<std::uint64_t> top;
  for (int bit = 42; bit <= 62; ++bit) {
    const std::int64_t lo = std::int64_t{1} << bit;
    for (int i = 0; i < 10; ++i) {
      top.push_back(q.schedule(rng.uniform_int(lo, lo | (lo - 1))));
    }
  }
  for (int i = 0; i < 3; ++i) top.push_back(q.schedule(sim::kTimeInfinity));
  for (std::size_t i = 0; i < top.size(); i += 3) q.cancel(top[i]);
  // Run to just below bit 60, scatter events on both sides of it, then jump
  // the clock across it: the level-10 bucket cascades at the crossing.
  now = (std::int64_t{1} << 60) - (std::int64_t{1} << 50);
  q.advance(now);
  for (int i = 0; i < 50; ++i) {
    q.schedule(now + rng.uniform_int(0, std::int64_t{1} << 52));
  }
  now = (std::int64_t{1} << 60) + (std::int64_t{1} << 58);
  q.advance(now);
  for (int i = 0; i < 50; ++i) q.schedule(now + rng.uniform_int(0, 1 << 12));
  q.advance(sim::kTimeInfinity);
}

TEST(QueueDifferential, LongMonotoneRunWithPartialDrainsStaysOrdered) {
  QueueDiff q(/*reserve=*/false);
  sim::SimTime at = 0;
  // Interleave appends and partial drains, so the run keeps growing ahead
  // of the cursor while its earlier part cascades down level by level.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 100; ++i) q.schedule(at += 10);
    q.advance(at - 500);
  }
  q.advance(sim::kTimeInfinity);
}

}  // namespace
