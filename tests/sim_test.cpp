// Unit and property tests for the discrete-event kernel, RNG, and arrival
// processes (src/sim).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/arrival.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mcs::sim {
namespace {

// ---- time conversions -------------------------------------------------------

TEST(SimTimeTest, RoundTripsSeconds) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
  EXPECT_EQ(from_seconds(-5.0), 0);
}

TEST(SimTimeTest, UnitsCompose) {
  EXPECT_EQ(60 * kSecond, kMinute);
  EXPECT_EQ(60 * kMinute, kHour);
  EXPECT_EQ(24 * kHour, kDay);
}

// ---- event engine ------------------------------------------------------------

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(42, [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime seen = -1;
  sim.schedule_at(100, [&] {
    sim.schedule_after(50, [&] { seen = sim.now(); });
  });
  sim.run_until();
  EXPECT_EQ(seen, 150);
}

TEST(SimulatorTest, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(100, [] {});
  sim.run_until();
  EXPECT_THROW(sim.schedule_at(50, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.schedule_at(10, [&] { ++ran; });
  sim.schedule_at(1000, [&] { ++ran; });
  const std::size_t n = sim.run_until(500);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), 500);  // clock parked at the horizon
  sim.run_until(2000);
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int ran = 0;
  EventHandle h = sim.schedule_at(10, [&] { ++ran; });
  sim.schedule_at(20, [&] { ++ran; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // second cancel is a no-op
  sim.run_until();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, CancelledEventDoesNotBlockHorizon) {
  Simulator sim;
  int ran = 0;
  EventHandle h = sim.schedule_at(10, [&] { ++ran; });
  sim.schedule_at(600, [&] { ++ran; });
  sim.cancel(h);
  // The cancelled event at t=10 must not cause the t=600 event to run
  // within a run_until(500) horizon.
  sim.run_until(500);
  EXPECT_EQ(ran, 0);
  sim.run_until(700);
  EXPECT_EQ(ran, 1);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) sim.schedule_after(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run_until();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 99 * 10);
}

// ---- kernel fast paths: slot recycling, callback lifetime, queue stress -----

TEST(CallbackTest, SmallLambdaIsStoredInline) {
  int x = 0;
  Callback cb([&x] { ++x; });
  EXPECT_TRUE(cb.is_inline());
  cb();
  EXPECT_EQ(x, 1);
}

TEST(CallbackTest, CapturesUpToInlineSizeStayInline) {
  struct Fat {
    std::int64_t a[6];  // exactly 48 bytes
  } fat{};
  double sink = 0.0;
  Callback cb([fat, &sink] { sink += static_cast<double>(fat.a[0]); });
  // 48-byte payload + reference still must not force a heap fallback for
  // the payload alone; anything <= kInlineSize is inline.
  Callback small([fat]() mutable { fat.a[0] = 1; });
  EXPECT_TRUE(small.is_inline());
  (void)cb;
}

TEST(CallbackTest, OversizedCaptureFallsBackToHeapAndStillRuns) {
  struct Huge {
    std::int64_t a[16];  // 128 bytes > kInlineSize
  } huge{};
  huge.a[15] = 42;
  std::int64_t seen = 0;
  Callback cb([huge, &seen] { seen = huge.a[15]; });
  EXPECT_FALSE(cb.is_inline());
  cb();
  EXPECT_EQ(seen, 42);
}

TEST(CallbackTest, AcceptsMoveOnlyClosures) {
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  Callback cb([p = std::move(owned), &seen] { seen = *p; });
  Callback moved = std::move(cb);
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(SimulatorTest, CancelThenRescheduleDoesNotConfuseHandles) {
  // The kernel recycles callback slots; a stale handle from a cancelled
  // (or executed) event must never cancel the slot's next tenant.
  Simulator sim;
  int first = 0, second = 0;
  EventHandle h1 = sim.schedule_at(10, [&] { ++first; });
  EXPECT_TRUE(sim.cancel(h1));
  // This schedule reuses h1's slot (same kernel storage, new generation).
  EventHandle h2 = sim.schedule_at(20, [&] { ++second; });
  EXPECT_FALSE(sim.cancel(h1));  // stale handle: must miss the new tenant
  sim.run_until();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  // After execution both handles are dead.
  EXPECT_FALSE(sim.cancel(h2));
  EXPECT_FALSE(sim.cancel(h1));
}

TEST(SimulatorTest, HandleFromExecutedEventCannotCancelSlotReuse) {
  Simulator sim;
  int a = 0, b = 0;
  EventHandle ha = sim.schedule_at(1, [&] { ++a; });
  sim.run_until(5);
  EXPECT_EQ(a, 1);
  EventHandle hb = sim.schedule_at(10, [&] { ++b; });  // recycles ha's slot
  EXPECT_FALSE(sim.cancel(ha));
  sim.run_until();
  EXPECT_EQ(b, 1);
  (void)hb;
}

TEST(SimulatorTest, CancelDestroysCallbackImmediately) {
  // Captured resources must be released at cancel() time, not when the
  // tombstoned queue entry eventually surfaces.
  Simulator sim;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  EventHandle h = sim.schedule_at(1000, [t = std::move(token)] { (void)t; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_TRUE(watch.expired());  // released now, though the event is queued
  EXPECT_EQ(sim.pending(), 1u);  // the tombstone is still queued
  sim.run_until();
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, ExecutionReleasesCallbackCaptures) {
  Simulator sim;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sim.schedule_at(1, [t = std::move(token)] { (void)t; });
  sim.run_until();
  EXPECT_TRUE(watch.expired());
}

TEST(SimulatorTest, MillionMixedScheduleCancelOpsStayOrdered) {
  // Queue behaviour after 10^6 mixed operations: a deterministic pseudo-
  // random mix of schedules and cancels, validated by execution count and
  // by monotone event times.
  Simulator sim;
  sim.reserve_events(1 << 20);
  Rng rng(2024);
  std::vector<EventHandle> live;
  live.reserve(1 << 20);
  std::uint64_t scheduled = 0, cancelled = 0;
  SimTime last_seen = -1;
  bool monotone = true;
  for (int i = 0; i < 1'000'000; ++i) {
    const double u = rng.uniform();
    if (u < 0.6 || live.empty()) {
      const auto at = static_cast<SimTime>(rng.uniform_int(0, 1 << 22));
      live.push_back(sim.schedule_at(at, [&sim, &last_seen, &monotone] {
        monotone = monotone && sim.now() >= last_seen;
        last_seen = sim.now();
      }));
      ++scheduled;
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      if (sim.cancel(live[idx])) ++cancelled;
      live[idx] = live.back();
      live.pop_back();
    }
  }
  const std::size_t ran = sim.run_until();
  EXPECT_EQ(ran, scheduled - cancelled);
  EXPECT_EQ(sim.executed(), scheduled - cancelled);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulatorTest, ReserveEventsPreservesBehaviour) {
  Simulator sim;
  sim.reserve_events(1024);
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(100 - i, [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], 99 - i);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    std::vector<SimTime> stamps;
    std::function<void()> tick = [&] {
      stamps.push_back(sim.now());
      if (stamps.size() < 50) {
        sim.schedule_after(from_seconds(rng.exponential(1.0)), tick);
      }
    };
    sim.schedule_at(0, tick);
    sim.run_until();
    return stamps;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---- recurring events ---------------------------------------------------------

// The order-diff scenario: background events at every microsecond of
// [0, 400) each schedule a one-shot event 0-1 µs later, and the recurring
// step logs its run, schedules two one-shot events 0-2 µs later and draws
// its next delay in 0-3 µs, zeros included, stopping at its 150th run. Each
// one-shot event schedules another 0-3 µs later with probability 1/2, so
// events that run between two runs land on the next run's time too. All
// draws share one RNG: a change in execution order changes every later
// draw.
struct RecurringScenario {
  Simulator sim;
  Rng rng{2024};
  std::vector<std::pair<SimTime, int>> log;  // (time, event id) per event
  int runs = 0;
  int next_id = 0;

  RecurringScenario() {
    for (SimTime t = 0; t < 400; ++t) {
      sim.schedule_at(t, [this] {
        note(0);
        one_shot(rng.uniform_int(0, 1));
      });
    }
  }
  void note(int id) { log.emplace_back(sim.now(), id); }
  void one_shot(SimTime delay) {
    const int id = ++next_id;
    sim.schedule_after(delay, [this, id] {
      note(id);
      if (rng.chance(0.5)) one_shot(rng.uniform_int(0, 3));
    });
  }
  std::optional<SimTime> step() {
    note(-1 - runs);
    one_shot(rng.uniform_int(0, 2));
    one_shot(rng.uniform_int(0, 2));
    if (++runs == 150) return std::nullopt;
    return rng.uniform_int(0, 3);
  }
};

TEST(RecurringTest, RunsInTheOrderOfAReArmAtTheEndOfTheStep) {
  RecurringScenario by_hand;
  struct ReArm {
    RecurringScenario* s;
    void operator()() const {
      if (const std::optional<SimTime> next = s->step()) {
        s->sim.schedule_after(*next, *this);
      }
    }
  };
  by_hand.sim.schedule_after(3, ReArm{&by_hand});
  by_hand.sim.run_until();

  RecurringScenario recurring;
  recurring.sim.schedule_recurring(3, [s = &recurring] { return s->step(); });
  recurring.sim.run_until();

  EXPECT_EQ(recurring.runs, 150);
  EXPECT_EQ(recurring.log, by_hand.log);
}

// Counts its live copies, so a test sees when a step's captures die.
class Token {
 public:
  explicit Token(int* live) : live_(live) { ++*live_; }
  Token(const Token& other) : live_(other.live_) { ++*live_; }
  Token& operator=(const Token&) = delete;
  ~Token() { --*live_; }

 private:
  int* live_;
};

// Ends a recurring loop the three ways it can end, with a step holding
// what `make_hold` returns, and expects the step destroyed each time.
template <typename MakeHold>
void expect_step_freed(MakeHold make_hold) {
  int live = 0;
  {  // the step returns std::nullopt
    Simulator sim;
    int runs = 0;
    sim.schedule_recurring(
        0, [&runs, hold = make_hold(&live)]() -> std::optional<SimTime> {
          if (++runs == 3) return std::nullopt;
          return 10;
        });
    sim.run_until(15);
    EXPECT_EQ(live, 1);  // one box, no copy per run
    sim.run_until();
    EXPECT_EQ(runs, 3);
    EXPECT_EQ(live, 0);
  }
  {  // a run throws out of run_until
    Simulator sim;
    int runs = 0;
    sim.schedule_recurring(
        0, [&runs, hold = make_hold(&live)]() -> std::optional<SimTime> {
          if (++runs == 2) throw std::runtime_error("step failed");
          return 10;
        });
    EXPECT_THROW(sim.run_until(), std::runtime_error);
    EXPECT_EQ(live, 0);
  }
  {  // the simulator is destroyed with a run pending
    auto sim = std::make_unique<Simulator>();
    sim->schedule_recurring(
        5, [hold = make_hold(&live)]() -> std::optional<SimTime> {
          return 10;
        });
    sim->run_until(20);
    EXPECT_EQ(live, 1);
    sim.reset();
    EXPECT_EQ(live, 0);
  }
}

TEST(RecurringTest, StepIsDestroyedWhenItStopsThrowsOrIsDropped) {
  expect_step_freed([](int* live) { return Token(live); });
  expect_step_freed([](int* live) { return std::make_unique<Token>(live); });
}

// ---- RNG distributions --------------------------------------------------------

class RngDistributionTest : public ::testing::Test {
 protected:
  Rng rng_{12345};
  static constexpr int kN = 20000;
};

TEST_F(RngDistributionTest, UniformBoundsAndMean) {
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double u = rng_.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST_F(RngDistributionTest, ExponentialMean) {
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng_.exponential(4.0);
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST_F(RngDistributionTest, LognormalMeanCv) {
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng_.lognormal_mean_cv(10.0, 0.5);
  EXPECT_NEAR(sum / kN, 10.0, 0.3);
}

TEST_F(RngDistributionTest, WeibullMean) {
  // Mean of Weibull(k=2, lambda) = lambda * Gamma(1.5) = lambda*0.8862.
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng_.weibull(2.0, 1.0);
  EXPECT_NEAR(sum / kN, 0.8862, 0.03);
}

TEST_F(RngDistributionTest, ZipfIsSkewedAndInRange) {
  std::vector<int> counts(10, 0);
  for (int i = 0; i < kN; ++i) {
    const std::size_t k = rng_.zipf(10, 1.2);
    ASSERT_LT(k, 10u);
    ++counts[k];
  }
  // Rank 0 must dominate rank 9 heavily.
  EXPECT_GT(counts[0], counts[9] * 5);
  // Monotone-ish decay between first and middle ranks.
  EXPECT_GT(counts[0], counts[4]);
}

TEST_F(RngDistributionTest, WeightedIndexFollowsWeights) {
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < kN; ++i) ++counts[rng_.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST_F(RngDistributionTest, InvalidParametersThrow) {
  EXPECT_THROW(rng_.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng_.weibull(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng_.zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng_.weighted_index({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(rng_.weighted_index({-1.0, 2.0}), std::invalid_argument);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

// ---- arrival processes ---------------------------------------------------------

TEST(ArrivalTest, PoissonRateIsRespected) {
  Rng rng(5);
  PoissonProcess p(10.0);  // 10 arrivals/second
  SimTime total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += p.next_gap(rng);
  const double rate = n / to_seconds(total);
  EXPECT_NEAR(rate, 10.0, 0.4);
}

TEST(ArrivalTest, MmppIsBurstierThanPoisson) {
  Rng rng1(5), rng2(5);
  PoissonProcess poisson(1.0);
  MmppProcess mmpp(0.2, 20.0, 100.0, 10.0);
  auto cv_of = [](auto& proc, Rng& rng) {
    std::vector<double> gaps;
    for (int i = 0; i < 8000; ++i) {
      gaps.push_back(to_seconds(proc.next_gap(rng)));
    }
    double mean = 0.0;
    for (double g : gaps) mean += g;
    mean /= gaps.size();
    double var = 0.0;
    for (double g : gaps) var += (g - mean) * (g - mean);
    var /= gaps.size();
    return std::sqrt(var) / mean;
  };
  const double cv_poisson = cv_of(poisson, rng1);
  const double cv_mmpp = cv_of(mmpp, rng2);
  EXPECT_NEAR(cv_poisson, 1.0, 0.1);   // exponential gaps: CV = 1
  EXPECT_GT(cv_mmpp, cv_poisson * 1.5);  // bursty: much higher CV
}

TEST(ArrivalTest, DiurnalProducesPositiveGaps) {
  Rng rng(11);
  DiurnalProcess d(5.0, 0.8, kDay);
  SimTime total = 0;
  for (int i = 0; i < 5000; ++i) {
    const SimTime g = d.next_gap(rng);
    ASSERT_GE(g, 0);
    total += g;
  }
  // Average rate should be near the base rate over whole periods.
  const double rate = 5000 / to_seconds(total);
  EXPECT_NEAR(rate, 5.0, 0.5);
}

TEST(ArrivalTest, BadParametersThrow) {
  EXPECT_THROW(PoissonProcess(0.0), std::invalid_argument);
  EXPECT_THROW(MmppProcess(0.0, 1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(DiurnalProcess(1.0, 2.0, kDay), std::invalid_argument);
  EXPECT_THROW(DiurnalProcess(1.0, 0.5, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mcs::sim
