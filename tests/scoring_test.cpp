// Tests for the placement/scoring pass (sched/scoring.hpp): score-policy
// hand fixtures, deterministic tie-breaking, pick_machine against the
// legacy Fit loop, zone label filtering, the anti-affinity table,
// LabelFilterCache memoization, the backfilling release profile and both
// backfilling policies against their naive references, every index-walking
// policy against the per-round sort it replaced, min-min, max-min and
// random against their unbounded loops, and engine-level zone/spread
// enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sched/engine.hpp"
#include "sched/scoring.hpp"
#include "sim/random.hpp"
#include "workload/task.hpp"

namespace mcs::sched {
namespace {

infra::Datacenter make_zoned_dc(std::size_t machines, std::size_t zones,
                                double cores = 8.0, double gpu = 0.0) {
  infra::Datacenter dc("dc", "eu");
  for (std::size_t m = 0; m < machines; ++m) {
    dc.add_machine("m" + std::to_string(m),
                   infra::ResourceVector{cores, cores * 4.0, gpu}, 1.0, 0);
    if (zones > 0) {
      dc.set_zone(static_cast<infra::MachineId>(m),
                  "z" + std::to_string(m % zones));
    }
  }
  return dc;
}

// ---- policy names --------------------------------------------------------------

/// Every scoring policy, kNone first.
std::vector<NodeScorePolicy> all_score_policies() {
  return {NodeScorePolicy::kNone, NodeScorePolicy::kRandomHash,
          NodeScorePolicy::kFreeShareVariance,
          NodeScorePolicy::kSquaredMinDelta};
}

TEST(ScorePolicyTest, NamesRoundTrip) {
  for (NodeScorePolicy p : all_score_policies()) {
    EXPECT_EQ(score_policy_from_string(to_string(p)), p);
  }
  EXPECT_EQ(score_policy_from_string("no-such-policy"), NodeScorePolicy::kNone);
  EXPECT_EQ(score_policy_from_string(""), NodeScorePolicy::kNone);
}

TEST(ScorePolicyTest, AllPoliciesListsEveryVariantOnce) {
  const auto all = all_score_policies();
  EXPECT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0], NodeScorePolicy::kNone);
}

// ---- score_machine hand fixtures -----------------------------------------------

/// One-machine PlannedCapacity fixture with the given capacity, untouched.
struct ScoreFixture {
  infra::Datacenter dc;
  std::vector<const infra::Machine*> machines;
  PlannedCapacity planned;

  explicit ScoreFixture(infra::ResourceVector capacity)
      : dc("fx", "sim"),
        machines((dc.add_machine("m0", capacity, 1.0, 0),
                  static_cast<const infra::Datacenter&>(dc).machines())),
        planned(machines) {}
};

TEST(ScoreMachineTest, NoneIsAlwaysZero) {
  ScoreFixture fx(infra::ResourceVector{10.0, 10.0, 0.0});
  EXPECT_EQ(score_machine(NodeScorePolicy::kNone, 7, 42, fx.planned, 0,
                          infra::ResourceVector{2.0, 4.0, 0.0}),
            0.0);
}

TEST(ScoreMachineTest, FreeShareVarianceHandFixture) {
  // cap {10,10}, free {10,10}, demand {2,4}: shares after = 0.8 and 0.6,
  // score = ((0.8-0.6)/2)^2 = 0.01.
  ScoreFixture fx(infra::ResourceVector{10.0, 10.0, 0.0});
  const double s =
      score_machine(NodeScorePolicy::kFreeShareVariance, 0, 1, fx.planned, 0,
                    infra::ResourceVector{2.0, 4.0, 0.0});
  EXPECT_NEAR(s, 0.01, 1e-12);
}

TEST(ScoreMachineTest, FreeShareVarianceIsZeroWhenBalanced) {
  ScoreFixture fx(infra::ResourceVector{10.0, 20.0, 0.0});
  // Demand consumes the same *share* of both dimensions: 0.2 each.
  const double s =
      score_machine(NodeScorePolicy::kFreeShareVariance, 0, 1, fx.planned, 0,
                    infra::ResourceVector{2.0, 4.0, 0.0});
  EXPECT_EQ(s, 0.0);
}

TEST(ScoreMachineTest, SquaredMinDeltaHandFixture) {
  // Shares after = 0.8 and 0.6; min = 0.6; score = 0.36.
  ScoreFixture fx(infra::ResourceVector{10.0, 10.0, 0.0});
  const double s =
      score_machine(NodeScorePolicy::kSquaredMinDelta, 0, 1, fx.planned, 0,
                    infra::ResourceVector{2.0, 4.0, 0.0});
  EXPECT_NEAR(s, 0.36, 1e-12);
}

TEST(ScoreMachineTest, ZeroCapacityDimensionContributesZeroShare) {
  // Memoryless machine: mem share is defined as 0, so variance fixture
  // degenerates to (a/2)^2 and min-delta to 0.
  ScoreFixture fx(infra::ResourceVector{10.0, 0.0, 0.0});
  const infra::ResourceVector demand{2.0, 0.0, 0.0};
  EXPECT_NEAR(score_machine(NodeScorePolicy::kFreeShareVariance, 0, 1,
                            fx.planned, 0, demand),
              0.16, 1e-12);
  EXPECT_EQ(score_machine(NodeScorePolicy::kSquaredMinDelta, 0, 1, fx.planned,
                          0, demand),
            0.0);
}

TEST(ScoreMachineTest, RandomHashIsDeterministicAndSaltSensitive) {
  ScoreFixture fx(infra::ResourceVector{10.0, 10.0, 0.0});
  const infra::ResourceVector d{1.0, 1.0, 0.0};
  const double s1 =
      score_machine(NodeScorePolicy::kRandomHash, 17, 42, fx.planned, 0, d);
  const double s2 =
      score_machine(NodeScorePolicy::kRandomHash, 17, 42, fx.planned, 0, d);
  EXPECT_EQ(s1, s2);
  EXPECT_NE(s1,
            score_machine(NodeScorePolicy::kRandomHash, 18, 42, fx.planned, 0, d));
  EXPECT_NE(s1,
            score_machine(NodeScorePolicy::kRandomHash, 17, 43, fx.planned, 0, d));
  EXPECT_GE(s1, 0.0);
}

// ---- pick_machine (placement-aware overload) -----------------------------------

ReadyTask ready_task(infra::ResourceVector demand, workload::JobId job = 1) {
  ReadyTask t;
  t.job = job;
  t.demand = demand;
  return t;
}

/// The pre-merge unconstrained, unscored machine choice: a capacity Fit
/// heuristic that maximizes, kept verbatim as the reference the one
/// pick_machine loop is diffed against.
std::optional<infra::MachineId> legacy_pick_machine(
    const std::vector<const infra::Machine*>& machines,
    const PlannedCapacity& planned, const infra::ResourceVector& demand,
    Fit fit) {
  if (!planned.may_fit_anywhere(demand)) return std::nullopt;
  std::optional<infra::MachineId> best;
  double best_score = 0.0;
  for (const infra::Machine* m : machines) {
    if (!planned.fits(m->id(), demand)) continue;
    if (fit == Fit::kFirst) return m->id();
    const double score = -(planned.free_on(m->id()).cpu() - demand.cpu());
    if (!best || score > best_score) {
      best = m->id();
      best_score = score;
    }
  }
  return best;
}

/// The admitting machine with room that finishes `t` first (strictly
/// smaller work / speed wins, so ties go to the lowest id), with that
/// finish; nullopt when none.
std::optional<std::pair<infra::MachineId, double>> reference_earliest_finish(
    const SchedulerView& view, const PlannedCapacity& planned,
    const ReadyTask& t) {
  if (!planned.may_fit_anywhere(t.demand)) return std::nullopt;
  std::optional<std::pair<infra::MachineId, double>> best;
  double best_finish = std::numeric_limits<double>::max();
  for (const infra::Machine* m : planned.machines()) {
    if (!planned.fits(m->id(), t.demand)) continue;
    if (!placement_allows(view.running, t, m->id())) continue;
    const double finish = t.work_seconds / m->speed_factor();
    if (finish < best_finish) {
      best_finish = finish;
      best = {m->id(), finish};
    }
  }
  return best;
}

/// A multiple of 0.25 in [0, max_quarters / 4]. Quarters are dyadic, so
/// sums are exact in any order and ties between machines are common.
double quarters(sim::Rng& rng, std::int64_t max_quarters) {
  return 0.25 * static_cast<double>(rng.uniform_int(0, max_quarters));
}

TEST(PickMachineTest, ScoringFastPathMatchesLegacyOverload) {
  // Random planned states on mixed-speed fleets: free capacity and speed
  // tie often, so every Fit's tie-break is exercised as well as its choice.
  // The capacity Fits are diffed against the legacy loop, kEarliestFinish
  // against the earliest-finish scan HEFT and min-min ran before it.
  std::size_t placed = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    infra::Datacenter dc("pm", "sim");
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
    for (std::size_t i = 0; i < n; ++i) {
      const double cores = 4.0 * static_cast<double>(rng.uniform_int(1, 4));
      const double speed = 0.5 * static_cast<double>(rng.uniform_int(1, 4));
      dc.add_machine("m" + std::to_string(i),
                     infra::ResourceVector{cores, cores * 4.0, 0.0}, speed, 0);
    }
    const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
    PlannedCapacity planned(machines);
    const auto last = static_cast<std::int64_t>(n) - 1;
    for (std::int64_t k = rng.uniform_int(0, 3 * last + 3); k > 0; --k) {
      const auto id = static_cast<infra::MachineId>(rng.uniform_int(0, last));
      const infra::ResourceVector d{quarters(rng, 16), quarters(rng, 32), 0.0};
      if (planned.fits(id, d)) planned.take(id, d);
    }
    SchedulerView view;
    PlacementContext ctx;  // kNone
    view.placement = &ctx;
    for (int q = 0; q < 8; ++q) {
      const ReadyTask t = ready_task(infra::ResourceVector{
          0.25 + quarters(rng, 40), quarters(rng, 64), 0.0});
      for (Fit fit : {Fit::kFirst, Fit::kBest, Fit::kEarliestFinish}) {
        const auto got = pick_machine(planned, t, fit, view);
        if (fit == Fit::kEarliestFinish) {
          const auto want = reference_earliest_finish(view, planned, t);
          EXPECT_EQ(got, want ? std::optional(want->first) : std::nullopt)
              << "seed " << seed << " query " << q;
        } else {
          EXPECT_EQ(got, legacy_pick_machine(machines, planned, t.demand, fit))
              << "seed " << seed << " query " << q;
        }
        ++(got ? placed : rejected);
      }
    }
  }
  EXPECT_GT(placed, 2000u);
  // Rejection does not depend on the Fit: 75 rejected queries, as before,
  // count once per Fit.
  EXPECT_GT(rejected, 75u * 3u);
}

TEST(PickMachineTest, EarliestFinishNeedsARunTimeBelowDblMax) {
  // A run time that overflows to +inf never wins, so the task is not
  // placed, while a capacity Fit takes the first machine with room.
  auto dc = make_zoned_dc(2, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  const PlannedCapacity planned(machines);
  SchedulerView view;
  ReadyTask t = ready_task(infra::ResourceVector{1.0, 1.0, 0.0});
  t.work_seconds = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(pick_machine(planned, t, Fit::kEarliestFinish, view));
  EXPECT_EQ(pick_machine(planned, t, Fit::kFirst, view), 0u);
  EXPECT_EQ(pick_machine(planned, t, Fit::kBest, view), 0u);
  t.work_seconds = 1e300;
  EXPECT_EQ(pick_machine(planned, t, Fit::kEarliestFinish, view), 0u);
}

TEST(PickMachineTest, TieBreaksToLowestMachineId) {
  // Identical machines => identical variance scores; the strict-less rule
  // must keep the first (lowest-id) machine.
  auto dc = make_zoned_dc(4, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  PlannedCapacity planned(machines);
  SchedulerView view;
  PlacementContext ctx;
  ctx.score = NodeScorePolicy::kFreeShareVariance;
  view.placement = &ctx;
  const auto got = pick_machine(
      planned, ready_task(infra::ResourceVector{2.0, 8.0, 0.0}),
      Fit::kFirst, view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0u);
}

TEST(PickMachineTest, SquaredMinDeltaPacksTheFullerMachine) {
  auto dc = make_zoned_dc(2, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  PlannedCapacity planned(machines);
  // Machine 0 is half committed already; the bin-packing score should
  // drive the next task onto it (smaller post-placement min share) even
  // though machine 1 has more room.
  planned.take(0, infra::ResourceVector{4.0, 16.0, 0.0});
  SchedulerView view;
  PlacementContext ctx;
  ctx.score = NodeScorePolicy::kSquaredMinDelta;
  view.placement = &ctx;
  const auto got = pick_machine(
      planned, ready_task(infra::ResourceVector{2.0, 8.0, 0.0}),
      Fit::kFirst, view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0u);
}

TEST(PickMachineTest, VarianceAvoidsImbalancedMachine) {
  auto dc = make_zoned_dc(2, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  PlannedCapacity planned(machines);
  // Machine 0's cpu is nearly exhausted while its memory is untouched —
  // placing there leaves wildly unequal shares. Variance prefers machine 1.
  planned.take(0, infra::ResourceVector{6.0, 0.0, 0.0});
  SchedulerView view;
  PlacementContext ctx;
  ctx.score = NodeScorePolicy::kFreeShareVariance;
  view.placement = &ctx;
  const auto got = pick_machine(
      planned, ready_task(infra::ResourceVector{1.0, 4.0, 0.0}),
      Fit::kFirst, view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
}

TEST(PickMachineTest, ScoringSkipsMachinesWithoutRoom) {
  auto dc = make_zoned_dc(2, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  PlannedCapacity planned(machines);
  planned.take(0, infra::ResourceVector{8.0, 0.0, 0.0});  // cpu exhausted
  SchedulerView view;
  PlacementContext ctx;
  ctx.score = NodeScorePolicy::kSquaredMinDelta;
  view.placement = &ctx;
  const auto got = pick_machine(
      planned, ready_task(infra::ResourceVector{2.0, 4.0, 0.0}),
      Fit::kFirst, view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
  planned.take(1, infra::ResourceVector{8.0, 0.0, 0.0});
  EXPECT_FALSE(pick_machine(planned,
                            ready_task(infra::ResourceVector{2.0, 4.0, 0.0}),
                            Fit::kFirst, view)
                   .has_value());
}

// ---- zone masks ----------------------------------------------------------------

TEST(ZoneMaskTest, MachineInZoneHonorsBitsAndBounds) {
  const std::uint64_t mask[2] = {0b101, 0};  // machines 0 and 2
  ReadyTask t = ready_task(infra::ResourceVector{1.0, 1.0, 0.0});
  t.zone_mask = mask;
  t.zone_words = 2;
  EXPECT_TRUE(machine_in_zone(t, 0));
  EXPECT_FALSE(machine_in_zone(t, 1));
  EXPECT_TRUE(machine_in_zone(t, 2));
  EXPECT_FALSE(machine_in_zone(t, 127));
  EXPECT_FALSE(machine_in_zone(t, 128));  // beyond the mask: excluded
  t.zone_mask = nullptr;
  EXPECT_TRUE(machine_in_zone(t, 128));  // unconstrained: everything admits
}

TEST(ZoneMaskTest, PickMachineHonorsZoneFilter) {
  auto dc = make_zoned_dc(3, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  PlannedCapacity planned(machines);
  SchedulerView view;
  const std::uint64_t mask[1] = {0b100};  // only machine 2
  ReadyTask t = ready_task(infra::ResourceVector{2.0, 4.0, 0.0});
  t.zone_mask = mask;
  t.zone_words = 1;
  const auto got = pick_machine(planned, t, Fit::kFirst, view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 2u);
}

// ---- anti-affinity counts -------------------------------------------------------

/// A task of the job in `job_slot` on `machine`, ending at `end`.
RunningTask running_task(std::uint32_t job_slot, infra::MachineId machine,
                         sim::SimTime end = 0,
                         const infra::ResourceVector& held = {}) {
  RunningTask task;
  task.job_slot = job_slot;
  task.machine = machine;
  task.expected_end = end;
  task.held = held;
  return task;
}

TEST(AaCountTest, LookupFindsRowsAndDefaultsToZero) {
  RunningSet running;
  EXPECT_EQ(running.count(0, 0), 0u);  // no machine has a list yet
  // (job slot, machine, tasks): (0, 1, 2), (0, 3, 1), (2, 0, 4), (2, 5, 1),
  // added interleaved so the lists mix jobs.
  for (const auto& [job, machine] :
       std::vector<std::pair<std::uint32_t, infra::MachineId>>{
           {2, 0}, {0, 1}, {2, 0}, {0, 3}, {2, 5}, {0, 1}, {2, 0}, {2, 0}}) {
    (void)running.add(running_task(job, machine));
  }
  EXPECT_EQ(running.count(0, 1), 2u);
  EXPECT_EQ(running.count(0, 3), 1u);
  EXPECT_EQ(running.count(2, 0), 4u);
  EXPECT_EQ(running.count(2, 5), 1u);
  EXPECT_EQ(running.count(0, 0), 0u);
  EXPECT_EQ(running.count(1, 1), 0u);
  EXPECT_EQ(running.count(3, 9), 0u);
  // A removed task stops counting; its key is the next one handed out.
  running.remove(1);
  EXPECT_EQ(running.count(0, 1), 1u);
  EXPECT_EQ(running.add(running_task(3, 9)), 1u);
  EXPECT_EQ(running.count(3, 9), 1u);
}

TEST(AaCountTest, PlacementAllowsEnforcesSpreadLimit) {
  RunningSet running;
  (void)running.add(running_task(5, 2));
  (void)running.add(running_task(4, 3));  // another job's task
  ReadyTask t = ready_task(infra::ResourceVector{1.0, 1.0, 0.0});
  t.job_slot = 5;
  t.spread_limit = 1;
  EXPECT_FALSE(placement_allows(&running, t, 2));  // at the limit
  EXPECT_TRUE(placement_allows(&running, t, 3));   // clean machine
  EXPECT_TRUE(placement_allows(nullptr, t, 2));    // nothing runs
  t.spread_limit = 2;
  EXPECT_TRUE(placement_allows(&running, t, 2));  // below the raised limit
  t.spread_limit = 0;
  EXPECT_TRUE(placement_allows(&running, t, 2));  // unlimited
}

// ---- label filter cache --------------------------------------------------------

TEST(LabelFilterCacheTest, MemoizesPerExpression) {
  auto dc = make_zoned_dc(6, 3);  // zones z0,z1,z2 striped
  LabelFilterCache cache;
  const auto& mask = cache.mask_for("z1", dc);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  ASSERT_EQ(mask.size(), 1u);
  EXPECT_EQ(mask[0], 0b010010u);  // machines 1 and 4
  const auto& again = cache.mask_for("z1", dc);
  EXPECT_EQ(&again, &mask);  // stable reference
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LabelFilterCacheTest, MultiZoneExpressionUnionsMembers) {
  auto dc = make_zoned_dc(6, 3);
  LabelFilterCache cache;
  const auto& mask = cache.mask_for("z0,z2", dc);
  EXPECT_EQ(mask[0], 0b101101u);  // machines 0,3 (z0) + 2,5 (z2)
  EXPECT_EQ(cache.mask_for("nope", dc)[0], 0u);
}

TEST(LabelFilterCacheTest, RebuildsWhenTheFleetGrows) {
  auto dc = make_zoned_dc(2, 2);
  LabelFilterCache cache;
  EXPECT_EQ(cache.mask_for("z0", dc)[0], 0b01u);
  dc.add_machine("late", infra::ResourceVector{8.0, 32.0, 0.0}, 1.0, 0);
  dc.set_zone(2, "z0");
  EXPECT_EQ(cache.mask_for("z0", dc)[0], 0b101u);  // rebuilt, not stale
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 1u);
}

// ---- backfilling release profile -----------------------------------------------

/// The per-machine filter+sort reservation query ReleaseProfile replaced,
/// kept verbatim as the reference it is diffed against.
std::pair<sim::SimTime, infra::MachineId> naive_reservation_for(
    const ReadyTask& t, const SchedulerView& view) {
  sim::SimTime best_time = sim::kTimeInfinity;
  infra::MachineId best_machine = 0;
  for (const infra::Machine* m : view.planned->machines()) {
    if (!t.demand.fits_within(m->capacity())) continue;
    if (!machine_in_zone(t, m->id())) continue;
    // Sort this machine's running tasks by end time and release them
    // in order until the task fits.
    std::vector<const RunningTask*> on_machine;
    view.running->for_each([&](std::uint32_t, const RunningTask& r) {
      if (r.machine == m->id()) on_machine.push_back(&r);
    });
    std::sort(on_machine.begin(), on_machine.end(),
              [](const RunningTask* a, const RunningTask* b) {
                return a->expected_end < b->expected_end;
              });
    infra::ResourceVector free = m->available();
    sim::SimTime when = view.now;
    bool fits = t.demand.fits_within(free);
    for (const RunningTask* r : on_machine) {
      if (fits) break;
      free += r->held;
      when = r->expected_end;
      fits = t.demand.fits_within(free);
    }
    if (fits && when < best_time) {
      best_time = when;
      best_machine = m->id();
    }
  }
  return {best_time, best_machine};
}

/// A random scheduling view over 1-10 machines (2-16 cores, 0-2 gpus, each
/// speed drawn from `speeds`). Every fifth seed runs nothing; elsewhere end
/// times come from five values, so ties are common, and ends at 1 s are
/// already overdue. Draining machines leave the view while their tasks keep
/// running. Demands are quarters: release sums are exact in any order, so a
/// reservation cannot depend on how ties on expected_end are ordered.
/// Pinned in place: the view points into its own members, its planned
/// capacity included.
struct RandomView {
  explicit RandomView(std::uint64_t seed,
                      const std::vector<double>& speeds = {0.5, 1.0, 1.5,
                                                           2.0})
      : rng(seed) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 10));
    for (std::size_t i = 0; i < n; ++i) {
      const double cores = static_cast<double>(rng.uniform_int(2, 16));
      const double gpus = static_cast<double>(rng.uniform_int(0, 2));
      const double speed = speeds[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(speeds.size()) - 1))];
      dc.add_machine("m" + std::to_string(i),
                     infra::ResourceVector{cores, cores * 4.0, gpus}, speed, 0);
    }
    for (std::size_t i = 0; i < n && seed % 5 != 0; ++i) {
      infra::Machine& m = dc.machine(static_cast<infra::MachineId>(i));
      for (std::int64_t k = rng.uniform_int(0, 8); k > 0; --k) {
        const infra::ResourceVector d{
            0.25 + quarters(rng, 16), quarters(rng, 32),
            static_cast<double>(rng.uniform_int(0, 1))};
        if (!m.can_fit(d)) continue;
        m.allocate(d);
        (void)running.add(running_task(
            0, m.id(), rng.uniform_int(1, 5) * sim::kSecond, d));
      }
    }
    view.now = 2 * sim::kSecond;
    view.ready = &ready;
    view.running = &running;
    std::vector<const infra::Machine*> machines;
    for (const infra::Machine* m :
         static_cast<const infra::Datacenter&>(dc).machines()) {
      if (!rng.chance(0.2)) machines.push_back(m);
    }
    planned = PlannedCapacity(std::move(machines));
    view.planned = &planned;
    mask[0] = static_cast<std::uint64_t>(rng.uniform_int(0, 1023));
  }
  RandomView(const RandomView&) = delete;
  RandomView& operator=(const RandomView&) = delete;

  /// Up to 20 cores and 3 gpus by default, so some demands fit no machine
  /// ever; 30% are pinned to the view's zone mask.
  ReadyTask random_task(std::int64_t max_core_quarters = 80) {
    ReadyTask t = ready_task(infra::ResourceVector{
        0.25 + quarters(rng, max_core_quarters), quarters(rng, 160),
        static_cast<double>(rng.uniform_int(0, 3))});
    if (rng.chance(0.3)) {
      t.zone_mask = mask;
      t.zone_words = 1;
    }
    return t;
  }

  /// Up to 8 cores and 0.25-8 s of work, for one of up to 6 jobs whose
  /// submit times tie across jobs; `task_index` is the caller's.
  ReadyTask queued_task() {
    ReadyTask t = random_task(31);
    t.job = static_cast<workload::JobId>(rng.uniform_int(1, 6));
    t.job_submit = static_cast<sim::SimTime>(t.job % 3) * sim::kSecond;
    t.work_seconds = 0.25 + quarters(rng, 31);
    return t;
  }

  /// Replaces the ready queue with up to 16 queued_task()s.
  void refill_ready() {
    ready = ReadyQueue{};
    for (std::int64_t k = rng.uniform_int(0, 16); k > 0; --k) {
      ReadyTask t = queued_task();
      t.task_index = ready.size();
      (void)ready.push(t);
    }
  }

  sim::Rng rng;
  infra::Datacenter dc{"rv", "sim"};
  RunningSet running;
  ReadyQueue ready;
  std::uint64_t mask[1] = {0};
  PlannedCapacity planned;
  SchedulerView view;
};

TEST(ReleaseProfileTest, MatchesNaiveReservationOnRandomViews) {
  std::size_t finite = 0;
  std::size_t never = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    RandomView rv(seed);
    const ReleaseProfile profile(rv.view);
    for (int q = 0; q < 8; ++q) {
      const ReadyTask t = rv.random_task();
      const auto got = profile.reservation_for(t, rv.view);
      EXPECT_EQ(got, naive_reservation_for(t, rv.view))
          << "seed " << seed << " query " << q;
      if (got.first == sim::kTimeInfinity) {
        ++never;
      } else {
        ++finite;
      }
    }
  }
  // The generator reaches both outcomes often.
  EXPECT_GT(finite, 200u);
  EXPECT_GT(never, 200u);
}

// ---- backfilling against the pre-merge policies ---------------------------------

/// Queued handles in FCFS order (submit time, job, task index; ties keep
/// enqueue order).
std::vector<ReadyQueue::Handle> fcfs_order(const ReadyQueue& ready) {
  std::vector<ReadyQueue::Handle> order = ready.handles();
  std::stable_sort(order.begin(), order.end(),
                   [&](ReadyQueue::Handle a, ReadyQueue::Handle b) {
                     const ReadyTask& x = ready[a];
                     const ReadyTask& y = ready[b];
                     if (x.job_submit != y.job_submit) {
                       return x.job_submit < y.job_submit;
                     }
                     if (x.job != y.job) return x.job < y.job;
                     return x.task_index < y.task_index;
                   });
  return order;
}

sim::SimTime expected_end(const SchedulerView& view,
                          const PlannedCapacity& planned, const ReadyTask& t,
                          infra::MachineId m) {
  return view.now + sim::from_seconds(t.work_seconds / planned.speed(m));
}

/// EASY backfilling as its own policy computed it before it became depth 1
/// of the ordered skeleton, with the naive reservation query and without
/// the min-demand exits (they only skip work). `turned_away` counts tasks
/// that fit but were refused to protect the head's reservation.
std::vector<Assignment> reference_easy(const SchedulerView& view,
                                       std::size_t& turned_away) {
  PlannedCapacity planned(view.planned->machines());
  const std::vector<ReadyQueue::Handle> order = fcfs_order(*view.ready);
  std::vector<Assignment> out;
  std::size_t head_pos = 0;
  // Greedily start the FCFS prefix.
  while (head_pos < order.size()) {
    const ReadyTask& t = (*view.ready)[order[head_pos]];
    auto m = pick_machine(planned, t, Fit::kFirst, view);
    if (!m) break;
    planned.take(*m, t.demand);
    out.push_back(Assignment{order[head_pos], *m});
    ++head_pos;
  }
  if (head_pos >= order.size()) return out;
  // The head cannot start: it is promised its shadow time. A later task may
  // start now iff it ends by then or avoids the reserved machine.
  const auto [shadow, reserved_machine] =
      naive_reservation_for((*view.ready)[order[head_pos]], view);
  for (std::size_t p = head_pos + 1; p < order.size(); ++p) {
    const ReadyTask& t = (*view.ready)[order[p]];
    auto m = pick_machine(planned, t, Fit::kFirst, view);
    if (!m) continue;
    if (expected_end(view, planned, t, *m) <= shadow ||
        *m != reserved_machine) {
      planned.take(*m, t.demand);
      out.push_back(Assignment{order[p], *m});
    } else {
      ++turned_away;
    }
  }
  return out;
}

/// Conservative backfilling as its own policy computed it, likewise: every
/// task that cannot start reserves its earliest slot, and a task starts
/// only if it ends by the earliest reservation on its machine.
std::vector<Assignment> reference_conservative(const SchedulerView& view,
                                               std::size_t& turned_away) {
  PlannedCapacity planned(view.planned->machines());
  std::map<infra::MachineId, sim::SimTime> reservation_at;
  std::vector<Assignment> out;
  for (const ReadyQueue::Handle h : fcfs_order(*view.ready)) {
    const ReadyTask& t = (*view.ready)[h];
    if (auto m = pick_machine(planned, t, Fit::kFirst, view)) {
      const auto r = reservation_at.find(*m);
      if (r == reservation_at.end() ||
          expected_end(view, planned, t, *m) <= r->second) {
        planned.take(*m, t.demand);
        out.push_back(Assignment{h, *m});
        continue;
      }
      ++turned_away;
    }
    const auto [when, machine] = naive_reservation_for(t, view);
    auto [it, inserted] = reservation_at.try_emplace(machine, when);
    if (!inserted) it->second = std::min(it->second, when);
  }
  return out;
}

std::vector<std::pair<ReadyQueue::Handle, infra::MachineId>> as_pairs(
    const std::vector<Assignment>& assignments) {
  std::vector<std::pair<ReadyQueue::Handle, infra::MachineId>> out;
  out.reserve(assignments.size());
  for (const Assignment& a : assignments) out.emplace_back(a.task, a.machine);
  return out;
}

TEST(BackfillDiffTest, MatchesPreMergePoliciesOnRandomQueues) {
  const auto easy = make_easy_backfilling();
  const auto conservative = make_conservative_backfilling();
  std::size_t easy_turned_away = 0;
  std::size_t conservative_turned_away = 0;
  std::size_t placed = 0;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    RandomView rv(seed);
    for (int q = 0; q < 8; ++q) {
      rv.refill_ready();
      const auto want_easy = reference_easy(rv.view, easy_turned_away);
      EXPECT_EQ(as_pairs(easy->decide(rv.view)), as_pairs(want_easy))
          << "easy seed " << seed << " queue " << q;
      const auto want_conservative =
          reference_conservative(rv.view, conservative_turned_away);
      EXPECT_EQ(as_pairs(conservative->decide(rv.view)),
                as_pairs(want_conservative))
          << "conservative seed " << seed << " queue " << q;
      placed += want_easy.size() + want_conservative.size();
    }
  }
  // The generator often reaches the case the reservations exist for: a task
  // that fits now but is refused to protect a blocked one.
  EXPECT_GT(easy_turned_away, 200u);
  EXPECT_GT(conservative_turned_away, 400u);
  EXPECT_GT(placed, 4000u);
}

// ---- the live ready index against the per-round sort ----------------------------

/// A queue order as the skeleton took it before the queue kept an index: it
/// may read the view (fair-share reads per-user usage).
using ViewOrder = bool (*)(const ReadyTask&, const ReadyTask&,
                           const SchedulerView&);

template <QueueOrder Order>
bool ignoring_view(const ReadyTask& a, const ReadyTask& b,
                   const SchedulerView&) {
  return Order(a, b);
}

/// Fair-share's comparator before it walked the FCFS index: least-served
/// user (consumed core-seconds) first, then FCFS.
bool order_fair_share(const ReadyTask& a, const ReadyTask& b,
                      const SchedulerView& view) {
  double ua = 0.0, ub = 0.0;
  if (view.user_usage != nullptr) {
    const std::vector<double>& usage = *view.user_usage;
    if (a.user_id < usage.size()) ua = usage[a.user_id];
    if (b.user_id < usage.size()) ub = usage[b.user_id];
  }
  if (ua != ub) return ua < ub;
  return order_fcfs(a, b);
}

/// The queue stable-sorted by `order` (ties keep enqueue order), as every
/// ordered policy and HEFT computed it once per round.
std::vector<ReadyQueue::Handle> sorted_order(const SchedulerView& view,
                                             ViewOrder order) {
  std::vector<ReadyQueue::Handle> out = view.ready->handles();
  std::stable_sort(out.begin(), out.end(),
                   [&](ReadyQueue::Handle a, ReadyQueue::Handle b) {
                     return order((*view.ready)[a], (*view.ready)[b], view);
                   });
  return out;
}

/// The queue's componentwise minimum demand, recomputed in O(Q).
infra::ResourceVector min_demand(const ReadyQueue& ready) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  infra::ResourceVector floor{kInf, kInf, kInf, kInf};
  for (const ReadyQueue::Handle h : ready.handles()) {
    for (std::size_t d = 0; d < core::kResourceDims; ++d) {
      floor[d] = std::min(floor[d], ready[h].demand[d]);
    }
  }
  return floor;
}

/// The ordered skeleton as it ran on a per-round sort and a fresh floor:
/// the reference every index walk is diffed against.
std::vector<Assignment> reference_ordered(const SchedulerView& view,
                                          ViewOrder order, Fit fit,
                                          std::size_t depth) {
  PlannedCapacity planned(view.planned->machines());
  const infra::ResourceVector floor = min_demand(*view.ready);
  if (!planned.may_fit_anywhere(floor)) return {};
  std::optional<ReleaseProfile> profile;
  std::vector<sim::SimTime> reservation_at;
  std::size_t granted = 0;
  std::vector<Assignment> out;
  for (const ReadyQueue::Handle h : sorted_order(view, order)) {
    if (!planned.may_fit_anywhere(floor)) break;
    const ReadyTask& t = (*view.ready)[h];
    const auto m = pick_machine(planned, t, fit, view);
    if (m && (granted == 0 ||
              expected_end(view, planned, t, *m) <= reservation_at[*m])) {
      planned.take(*m, t.demand);
      out.push_back(Assignment{h, *m});
      continue;
    }
    if (granted >= depth) continue;
    if (!profile) {
      profile.emplace(view);
      reservation_at.assign(planned.id_bound(), sim::kTimeInfinity);
    }
    const auto [when, machine] = profile->reservation_for(t, view);
    reservation_at[machine] = std::min(reservation_at[machine], when);
    ++granted;
  }
  return out;
}

/// HEFT as it ran on a per-round sort: highest upward rank first, each task
/// on the admitting machine that finishes it first (ties to the lowest id).
std::vector<Assignment> reference_heft(const SchedulerView& view) {
  PlannedCapacity planned(view.planned->machines());
  const infra::ResourceVector floor = min_demand(*view.ready);
  if (!planned.may_fit_anywhere(floor)) return {};
  std::vector<Assignment> out;
  for (const ReadyQueue::Handle h :
       sorted_order(view, ignoring_view<order_rank>)) {
    if (!planned.may_fit_anywhere(floor)) break;
    const ReadyTask& t = (*view.ready)[h];
    if (const auto best = reference_earliest_finish(view, planned, t)) {
      planned.take(best->first, t.demand);
      out.push_back(Assignment{h, best->first});
    }
  }
  return out;
}

/// Min-min (max-min) as it ran before it walked the SJF (LJF) index: every
/// step computes the earliest finish of every unplaced task in enqueue
/// order and takes the strictly smallest (largest), so ties go to the
/// oldest task.
std::vector<Assignment> reference_min_min(const SchedulerView& view,
                                          bool max_first) {
  PlannedCapacity planned(view.planned->machines());
  const ReadyQueue& queue = *view.ready;
  const std::vector<ReadyQueue::Handle>& queued = queue.handles();
  std::vector<bool> taken(queued.size(), false);
  std::vector<Assignment> out;
  for (;;) {
    std::optional<std::size_t> chosen;
    std::pair<infra::MachineId, double> chosen_finish;
    for (std::size_t i = 0; i < queued.size(); ++i) {
      if (taken[i]) continue;
      const auto f =
          reference_earliest_finish(view, planned, queue[queued[i]]);
      if (!f) continue;
      const bool better =
          !chosen || (max_first ? f->second > chosen_finish.second
                                : f->second < chosen_finish.second);
      if (better) {
        chosen = i;
        chosen_finish = *f;
      }
    }
    if (!chosen) break;
    taken[*chosen] = true;
    planned.take(chosen_finish.first, queue[queued[*chosen]].demand);
    out.push_back(Assignment{queued[*chosen], chosen_finish.first});
  }
  return out;
}

/// Random as it ran before it stopped at the queue floor: shuffle the
/// enqueue order, then give each task a machine drawn uniformly from those
/// that fit and admit it. `rng` is the policy's stream, drawn in the same
/// order, so a missing or extra draw shows in a later round.
std::vector<Assignment> reference_random(const SchedulerView& view,
                                         sim::Rng& rng) {
  PlannedCapacity planned(view.planned->machines());
  const ReadyQueue& queue = *view.ready;
  std::vector<ReadyQueue::Handle> order = queue.handles();
  rng.shuffle(order);
  std::vector<Assignment> out;
  for (const ReadyQueue::Handle h : order) {
    const ReadyTask& t = queue[h];
    if (!planned.may_fit_anywhere(t.demand)) continue;
    std::vector<infra::MachineId> options;
    for (const infra::Machine* m : planned.machines()) {
      if (planned.fits(m->id(), t.demand) &&
          placement_allows(view.running, t, m->id())) {
        options.push_back(m->id());
      }
    }
    if (options.empty()) continue;
    const auto pick = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(options.size()) - 1));
    planned.take(options[pick], t.demand);
    out.push_back(Assignment{h, options[pick]});
  }
  return out;
}

TEST(ReadyIndexDiffTest, PoliciesMatchTheSortingReferenceAcrossRounds) {
  // Each policy plans on its own queue, so its index stays live across
  // eight rounds of churn: the round's starts leave newest first, as the
  // engine applies them, a few tasks are killed or their job abandoned, and
  // new tasks arrive with ties on every key. Per-user usage moves between
  // rounds, ties included, and user 4 is past the usage table.
  struct Case {
    std::string name;
    ViewOrder order;  // null: HEFT, min-min, max-min or random, by name
    Fit fit;
    std::size_t depth;
  };
  const std::vector<Case> cases = {
      {"fcfs", ignoring_view<order_fcfs>, Fit::kFirst, 0},
      {"fcfs-bestfit", ignoring_view<order_fcfs>, Fit::kBest, 0},
      {"sjf", ignoring_view<order_sjf>, Fit::kFirst, 0},
      {"ljf", ignoring_view<order_ljf>, Fit::kFirst, 0},
      {"fair-share", order_fair_share, Fit::kFirst, 0},
      {"edf", ignoring_view<order_edf>, Fit::kFirst, 0},
      {"easy-backfill", ignoring_view<order_fcfs>, Fit::kFirst, 1},
      {"conservative-backfill", ignoring_view<order_fcfs>, Fit::kFirst,
       SIZE_MAX},
      {"heft", nullptr, Fit::kFirst, 0},
      {"min-min", nullptr, Fit::kFirst, 0},
      {"max-min", nullptr, Fit::kFirst, 0},
      {"random", nullptr, Fit::kFirst, 0},
  };
  // Seeds 1-60 draw speeds 0.5-2. The other fleets make finishes tie
  // across machines and tasks (work 1 on speed 1 against work 2 on speed
  // 2), or leave speeds one ulp apart, so min-min's and max-min's bound
  // exits and sequence tie-breaks decide.
  const double one_up = std::nextafter(1.0, 2.0);
  const double two_down = std::nextafter(2.0, 1.0);
  struct Fleet {
    std::uint64_t first_seed;
    std::uint64_t last_seed;
    std::vector<double> speeds;
  };
  const std::vector<Fleet> fleets = {
      {1, 60, {0.5, 1.0, 1.5, 2.0}},
      {61, 100, {1.0, 2.0}},
      {101, 140, {1.0, one_up, two_down, 2.0}},
  };
  constexpr std::uint64_t kRandomSeed = 42;  // make_policy("random")'s seed
  std::size_t placed = 0;
  std::size_t rounds_with_starts = 0;
  std::size_t compared = 0;
  for (const Fleet& fleet : fleets) {
    for (std::uint64_t seed = fleet.first_seed; seed <= fleet.last_seed;
         ++seed) {
      RandomView rv(seed, fleet.speeds);
      for (const Case& c : cases) {
        const auto policy = make_policy(c.name);
        sim::Rng reference_rng(kRandomSeed);
        ReadyQueue queue;
        std::vector<double> usage(4, 0.0);
        SchedulerView view = rv.view;
        view.ready = &queue;
        view.user_usage = &usage;
        std::size_t next_task = 0;
        for (int round = 0; round < 8; ++round) {
          for (std::int64_t k = rv.rng.uniform_int(0, 10); k > 0; --k) {
            ReadyTask t = rv.queued_task();
            t.task_index = next_task++;
            t.user_id = static_cast<std::uint32_t>(rv.rng.uniform_int(0, 4));
            t.rank = static_cast<double>(rv.rng.uniform_int(0, 3));
            t.deadline = rv.rng.chance(0.3)
                             ? sim::kTimeInfinity
                             : rv.rng.uniform_int(1, 4) * sim::kSecond;
            (void)queue.push(t);
          }
          if (!queue.empty() && rv.rng.chance(0.3)) {
            const auto pick = static_cast<std::size_t>(rv.rng.uniform_int(
                0, static_cast<std::int64_t>(queue.size()) - 1));
            const ReadyQueue::Handle victim = queue.handles()[pick];
            if (rv.rng.chance(0.5)) {
              queue.erase_job(queue[victim].job_slot);
            } else {
              queue.erase(victim);
            }
          }
          for (double& u : usage) {
            u = static_cast<double>(rv.rng.uniform_int(0, 3));
          }
          const auto got = policy->decide(view);
          const auto want =
              c.order != nullptr ? reference_ordered(view, c.order, c.fit,
                                                     c.depth)
              : c.name == "heft"   ? reference_heft(view)
              : c.name == "random" ? reference_random(view, reference_rng)
                                   : reference_min_min(view,
                                                       c.name == "max-min");
          ASSERT_EQ(as_pairs(got), as_pairs(want))
              << c.name << " seed " << seed << " round " << round;
          ++compared;
          // The engine starts the proposals newest first.
          std::vector<ReadyQueue::Handle> started;
          for (const Assignment& a : got) started.push_back(a.task);
          std::sort(started.begin(), started.end(),
                    [&](ReadyQueue::Handle a, ReadyQueue::Handle b) {
                      return queue.seq(a) > queue.seq(b);
                    });
          for (const ReadyQueue::Handle h : started) queue.erase(h);
          placed += got.size();
          if (!got.empty()) ++rounds_with_starts;
        }
      }
    }
  }
  EXPECT_EQ(compared, 140u * 8u * cases.size());
  EXPECT_GT(placed, 12000u);
  EXPECT_GT(rounds_with_starts, 6000u);
}

TEST(EarliestFinishTest, PoliciesIgnoreEveryNodeScore) {
  // A node score replaces only the capacity Fits: HEFT, min-min and max-min
  // place as their unscored references do under every scoring policy.
  // Ranks tie, and the second fleet ties finishes across machines.
  const std::vector<std::vector<double>> fleets = {{0.5, 1.0, 1.5, 2.0},
                                                   {1.0, 2.0}};
  std::size_t placed = 0;
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    RandomView rv(seed, fleets[seed % 2]);
    for (std::int64_t k = rv.rng.uniform_int(0, 16); k > 0; --k) {
      ReadyTask t = rv.queued_task();
      t.task_index = rv.ready.size();
      t.rank = static_cast<double>(rv.rng.uniform_int(0, 3));
      (void)rv.ready.push(t);
    }
    for (NodeScorePolicy score : all_score_policies()) {
      PlacementContext ctx;
      ctx.score = score;
      ctx.salt = seed;
      SchedulerView view = rv.view;
      view.placement = &ctx;
      for (const std::string name : {"heft", "min-min", "max-min"}) {
        const auto got = make_policy(name)->decide(view);
        const auto want = name == "heft"
                              ? reference_heft(view)
                              : reference_min_min(view, name == "max-min");
        ASSERT_EQ(as_pairs(got), as_pairs(want))
            << name << " under " << to_string(score) << " seed " << seed;
        placed += got.size();
      }
    }
  }
  EXPECT_GT(placed, 2500u);
}

TEST(ReleaseProfileTest, SaturatedFloorProposesNothingUnderEveryPolicy) {
  // Two 8-core machines with one core free each; the smallest queued cpu
  // demand is 2 cores, so the queue's floor fits nowhere.
  auto dc = make_zoned_dc(2, 0);
  RunningSet running;
  for (infra::MachineId id = 0; id < 2; ++id) {
    const infra::ResourceVector held{7.0, 8.0, 0.0};
    dc.machine(id).allocate(held);
    (void)running.add(running_task(0, id, 60 * sim::kSecond, held));
  }
  ReadyQueue ready;
  for (std::size_t i = 0; i < 6; ++i) {
    ReadyTask t = ready_task(
        infra::ResourceVector{2.0 + static_cast<double>(i % 3), 1.0, 0.0},
        i + 1);
    t.work_seconds = 10.0 * static_cast<double>(i + 1);
    (void)ready.push(t);
  }
  SchedulerView view;
  view.ready = &ready;
  PlannedCapacity planned(static_cast<const infra::Datacenter&>(dc).machines());
  view.planned = &planned;
  view.running = &running;
  for (const std::string& name : all_policy_names()) {
    EXPECT_TRUE(make_policy(name)->decide(view).empty()) << name;
  }
  // Control: with one machine idle again, every policy places something.
  dc.machine(0).release(running[0].held);
  planned.refresh(0);
  running.remove(0);
  for (const std::string& name : all_policy_names()) {
    EXPECT_FALSE(make_policy(name)->decide(view).empty()) << name;
  }
}

// ---- policies borrow the planned capacity ---------------------------------------

TEST(BorrowedPlanTest, DecideLeavesThePlannedCapacityAsItFoundIt) {
  // Two fresh instances of each policy, one after the other, on one view:
  // if the first left rows taken, the second would plan against less room
  // and place differently. Fresh instances keep random's seed equal.
  std::size_t placed = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    RandomView rv(seed);
    rv.refill_ready();
    std::vector<infra::ResourceVector> rows;
    for (const infra::Machine* m : rv.planned.machines()) {
      rows.push_back(rv.planned.free_on(m->id()));
    }
    for (const std::string& name : all_policy_names()) {
      const auto first = make_policy(name)->decide(rv.view);
      const auto second = make_policy(name)->decide(rv.view);
      EXPECT_EQ(as_pairs(first), as_pairs(second))
          << name << " seed " << seed;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(rv.planned.free_on(rv.planned.machines()[i]->id()), rows[i])
            << name << " seed " << seed;
      }
      placed += first.size();
    }
  }
  EXPECT_GT(placed, 1000u);
}

TEST(BorrowedPlanTest, DecideRejectsAViewWithoutPlannedCapacity) {
  ReadyQueue ready;
  (void)ready.push(ready_task(infra::ResourceVector{1.0, 1.0, 0.0}));
  const RunningSet running;
  SchedulerView view;
  view.ready = &ready;
  view.running = &running;
  for (const std::string& name : all_policy_names()) {
    EXPECT_THROW((void)make_policy(name)->decide(view), std::invalid_argument)
        << name;
  }
}

// ---- engine-level placement enforcement ----------------------------------------

workload::Job placed_job(workload::JobId id, std::size_t tasks,
                         double work_seconds, std::string zones,
                         std::uint32_t spread = 0) {
  workload::Job job = workload::make_bag_of_tasks(id, tasks, work_seconds,
                                                  infra::ResourceVector{
                                                      1.0, 4.0, 0.0});
  job.placement.zones = std::move(zones);
  job.placement.spread_limit = spread;
  return job;
}

TEST(EnginePlacementTest, ZoneConstrainedTaskRunsInsideItsZone) {
  auto dc = make_zoned_dc(2, 2);  // machine 0 -> z0, machine 1 -> z1
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(placed_job(1, 1, 100.0, "z1"));
  sim.schedule_at(sim::from_seconds(50.0), [&dc] {
    EXPECT_EQ(dc.machine(0).used().cpu(), 0.0);
    EXPECT_GT(dc.machine(1).used().cpu(), 0.0);
  });
  sim.run_until();
  ASSERT_TRUE(engine.all_done());
  EXPECT_FALSE(engine.completed()[0].abandoned);
}

TEST(EnginePlacementTest, UnsatisfiableZoneAbandonsAtArrival) {
  auto dc = make_zoned_dc(2, 2);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(placed_job(1, 1, 100.0, "does-not-exist"));
  sim.run_until();
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);
}

TEST(EnginePlacementTest, ZoneTooSmallForDemandAbandons) {
  // z1's only machine has no GPU; a GPU task pinned to z1 can never run,
  // even though z0 has one.
  infra::Datacenter dc("dc", "eu");
  dc.add_machine("gpu", infra::ResourceVector{8.0, 32.0, 2.0}, 1.0, 0);
  dc.add_machine("plain", infra::ResourceVector{8.0, 32.0, 0.0}, 1.0, 0);
  dc.set_zone(0, "z0");
  dc.set_zone(1, "z1");
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  workload::Job job = workload::make_bag_of_tasks(
      1, 1, 50.0, infra::ResourceVector{1.0, 4.0, 1.0});
  job.placement.zones = "z1";
  engine.submit(job);
  sim.run_until();
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);
}

TEST(EnginePlacementTest, ZoneResolvedOnAnEmptyFleetAdmitsNoLaterMachine) {
  // Zones resolve at submit. A mask resolved before the fleet had machines
  // is empty and admits none of the machines added before the job arrives.
  infra::Datacenter dc("dc", "eu");
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  workload::Job job = placed_job(1, 1, 10.0, "z0");
  job.submit_time = sim::from_seconds(5.0);
  engine.submit(job);
  dc.add_machine("m0", infra::ResourceVector{8.0, 32.0, 0.0}, 1.0, 0);
  dc.set_zone(0, "z0");
  sim.run_until();
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);
}

TEST(EnginePlacementTest, SpreadLimitSplitsTasksAcrossMachines) {
  // Two 8-core machines; two 1-core tasks would both land on machine 0
  // under first-fit, but spread_limit=1 forces one onto each machine.
  auto dc = make_zoned_dc(2, 0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(placed_job(1, 2, 100.0, "", /*spread=*/1));
  sim.schedule_at(sim::from_seconds(50.0), [&dc] {
    EXPECT_EQ(dc.machine(0).used().cpu(), 1.0);
    EXPECT_EQ(dc.machine(1).used().cpu(), 1.0);
  });
  sim.run_until();
  ASSERT_TRUE(engine.all_done());
  EXPECT_FALSE(engine.completed()[0].abandoned);
}

TEST(EnginePlacementTest, SpreadLimitSerializesWhenFleetIsSmaller) {
  // One machine, spread_limit=1, two tasks: they must run back-to-back
  // (response 200s), never concurrently.
  auto dc = make_zoned_dc(1, 0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(placed_job(1, 2, 100.0, "", /*spread=*/1));
  sim.schedule_at(sim::from_seconds(50.0), [&dc] {
    EXPECT_EQ(dc.machine(0).used().cpu(), 1.0);  // exactly one running
  });
  sim.run_until();
  ASSERT_TRUE(engine.all_done());
  EXPECT_NEAR(engine.completed()[0].response_seconds(), 200.0, 0.1);
}

TEST(EnginePlacementTest, EveryPolicyHonorsZonesAndSpread) {
  for (const std::string& name : all_policy_names()) {
    auto dc = make_zoned_dc(4, 2);  // z0: machines 0,2; z1: machines 1,3
    sim::Simulator sim;
    ExecutionEngine engine(sim, dc, make_policy(name));
    engine.submit(placed_job(1, 2, 30.0, "z1", /*spread=*/1));
    bool checked = false;
    sim.schedule_at(sim::from_seconds(15.0), [&dc, &checked] {
      checked = true;
      EXPECT_EQ(dc.machine(0).used().cpu(), 0.0);
      EXPECT_EQ(dc.machine(2).used().cpu(), 0.0);
      EXPECT_LE(dc.machine(1).used().cpu(), 1.0);
      EXPECT_LE(dc.machine(3).used().cpu(), 1.0);
    });
    sim.run_until();
    EXPECT_TRUE(checked) << name;
    ASSERT_TRUE(engine.all_done()) << name;
    EXPECT_FALSE(engine.completed()[0].abandoned) << name;
  }
}

TEST(EnginePlacementTest, ScoringPoliciesCompleteWorkloads) {
  for (NodeScorePolicy p : all_score_policies()) {
    auto dc = make_zoned_dc(4, 0);
    sim::Simulator sim;
    EngineConfig config;
    config.placement.score = p;
    config.placement.salt = 17;
    ExecutionEngine engine(sim, dc, make_fcfs(), config);
    for (workload::JobId id = 1; id <= 5; ++id) {
      engine.submit(workload::make_bag_of_tasks(id, 4, 25.0));
    }
    sim.run_until();
    ASSERT_TRUE(engine.all_done()) << to_string(p);
    EXPECT_EQ(engine.completed().size(), 5u) << to_string(p);
    for (const JobStats& s : engine.completed()) {
      EXPECT_FALSE(s.abandoned) << to_string(p);
    }
  }
}

TEST(EnginePlacementTest, ScoringRunsAreDeterministic) {
  auto run_once = [](NodeScorePolicy p) {
    auto dc = make_zoned_dc(3, 0);
    sim::Simulator sim;
    EngineConfig config;
    config.placement.score = p;
    config.placement.salt = 99;
    ExecutionEngine engine(sim, dc, make_fcfs(), config);
    for (workload::JobId id = 1; id <= 8; ++id) {
      engine.submit(workload::make_bag_of_tasks(id, 3, 20.0 + 3.0 * id));
    }
    sim.run_until();
    std::vector<std::pair<workload::JobId, sim::SimTime>> out;
    for (const JobStats& s : engine.completed()) out.emplace_back(s.id, s.finish);
    return out;
  };
  for (NodeScorePolicy p : all_score_policies()) {
    EXPECT_EQ(run_once(p), run_once(p)) << to_string(p);
  }
}

TEST(EnginePlacementTest, RandomHashSaltChangesTheSpread) {
  // Different salts should (for this fixture) land the first task on
  // different machines — the spread is salt-driven, not positional.
  auto placed_machine = [](std::uint64_t salt) {
    auto dc = make_zoned_dc(8, 0);
    sim::Simulator sim;
    EngineConfig config;
    config.placement.score = NodeScorePolicy::kRandomHash;
    config.placement.salt = salt;
    ExecutionEngine engine(sim, dc, make_fcfs(), config);
    engine.submit(workload::make_bag_of_tasks(1, 1, 10.0));
    infra::MachineId machine = 0;
    sim.schedule_at(sim::from_seconds(5.0), [&dc, &machine] {
      for (infra::MachineId id = 0; id < dc.machine_count(); ++id) {
        if (dc.machine(id).used().cpu() > 0.0) machine = id;
      }
    });
    sim.run_until();
    return machine;
  };
  bool differs = false;
  const infra::MachineId first = placed_machine(1);
  for (std::uint64_t salt = 2; salt <= 8 && !differs; ++salt) {
    differs = placed_machine(salt) != first;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace mcs::sched
