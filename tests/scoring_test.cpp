// Tests for the placement/scoring pass (sched/scoring.hpp): score-policy
// hand fixtures, deterministic tie-breaking, pick_machine against the
// legacy Fit loop, zone label filtering, the anti-affinity table,
// LabelFilterCache memoization, the backfilling release profile and both
// backfilling policies against their naive references, and engine-level
// zone/spread enforcement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
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

/// The pre-merge unconstrained, unscored machine choice: a Fit heuristic
/// that maximizes, kept verbatim as the reference the one pick_machine loop
/// is diffed against.
std::optional<infra::MachineId> legacy_pick_machine(
    const std::vector<const infra::Machine*>& machines,
    const PlannedCapacity& planned, const infra::ResourceVector& demand,
    Fit fit) {
  if (!planned.may_fit_anywhere(demand)) return std::nullopt;
  std::optional<infra::MachineId> best;
  double best_score = 0.0;
  for (const infra::Machine* m : machines) {
    if (!planned.fits(m->id(), demand)) continue;
    double score = 0.0;
    switch (fit) {
      case Fit::kFirst:
        return m->id();
      case Fit::kBest:
        score = -(planned.free_on(m->id()).cpu() - demand.cpu());
        break;
      case Fit::kWorst:
        score = planned.free_on(m->id()).cpu() - demand.cpu();
        break;
      case Fit::kFastest:
        score = m->speed_factor();
        break;
    }
    if (!best || score > best_score) {
      best = m->id();
      best_score = score;
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
      for (Fit fit : {Fit::kFirst, Fit::kBest, Fit::kWorst, Fit::kFastest}) {
        const auto got = pick_machine(machines, planned, t, fit, view);
        EXPECT_EQ(got, legacy_pick_machine(machines, planned, t.demand, fit))
            << "seed " << seed << " query " << q;
        ++(got ? placed : rejected);
      }
    }
  }
  EXPECT_GT(placed, 2000u);
  EXPECT_GT(rejected, 300u);
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
      machines, planned, ready_task(infra::ResourceVector{2.0, 8.0, 0.0}),
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
      machines, planned, ready_task(infra::ResourceVector{2.0, 8.0, 0.0}),
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
      machines, planned, ready_task(infra::ResourceVector{1.0, 4.0, 0.0}),
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
      machines, planned, ready_task(infra::ResourceVector{2.0, 4.0, 0.0}),
      Fit::kFirst, view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1u);
  planned.take(1, infra::ResourceVector{8.0, 0.0, 0.0});
  EXPECT_FALSE(pick_machine(machines, planned,
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
  const auto got = pick_machine(machines, planned, t, Fit::kFirst, view);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 2u);
}

// ---- anti-affinity table -------------------------------------------------------

TEST(AaCountTest, LookupFindsRowsAndDefaultsToZero) {
  const std::vector<AaCount> table = {
      {0, 1, 2}, {0, 3, 1}, {2, 0, 4}, {2, 5, 1}};
  EXPECT_EQ(aa_count(table, 0, 1), 2u);
  EXPECT_EQ(aa_count(table, 0, 3), 1u);
  EXPECT_EQ(aa_count(table, 2, 0), 4u);
  EXPECT_EQ(aa_count(table, 2, 5), 1u);
  EXPECT_EQ(aa_count(table, 0, 0), 0u);
  EXPECT_EQ(aa_count(table, 1, 1), 0u);
  EXPECT_EQ(aa_count(table, 3, 9), 0u);
  EXPECT_EQ(aa_count({}, 0, 0), 0u);
}

TEST(AaCountTest, PlacementAllowsEnforcesSpreadLimit) {
  SchedulerView view;
  const std::vector<AaCount> table = {{5, 2, 1}};
  view.aa = &table;
  ReadyTask t = ready_task(infra::ResourceVector{1.0, 1.0, 0.0});
  t.job_slot = 5;
  t.spread_limit = 1;
  EXPECT_FALSE(placement_allows(view, t, 2));  // at the limit
  EXPECT_TRUE(placement_allows(view, t, 3));   // clean machine
  t.spread_limit = 2;
  EXPECT_TRUE(placement_allows(view, t, 2));  // below the raised limit
  t.spread_limit = 0;
  EXPECT_TRUE(placement_allows(view, t, 2));  // unlimited
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
  for (const infra::Machine* m : view.machines) {
    if (!t.demand.fits_within(m->capacity())) continue;
    if (!machine_in_zone(t, m->id())) continue;
    // Sort this machine's running tasks by end time and release them
    // in order until the task fits.
    std::vector<const RunningView*> on_machine;
    on_machine.reserve(view.running->size());
    for (const RunningView& r : *view.running) {
      if (r.machine == m->id()) on_machine.push_back(&r);
    }
    std::sort(on_machine.begin(), on_machine.end(),
              [](const RunningView* a, const RunningView* b) {
                return a->expected_end < b->expected_end;
              });
    infra::ResourceVector free = m->available();
    sim::SimTime when = view.now;
    bool fits = t.demand.fits_within(free);
    for (const RunningView* r : on_machine) {
      if (fits) break;
      free += r->demand;
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

/// A random scheduling view over 1-10 machines (2-16 cores, 0-2 gpus,
/// speeds 0.5-2). Every fifth seed runs nothing; elsewhere end times come
/// from five values, so ties are common, and ends at 1 s are already
/// overdue. Draining machines leave the view while their tasks keep
/// running. Demands are quarters: release sums are exact in any order, so a
/// reservation cannot depend on how ties on expected_end are ordered.
/// Pinned in place: the view points into its own members.
struct RandomView {
  explicit RandomView(std::uint64_t seed) : rng(seed) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 10));
    for (std::size_t i = 0; i < n; ++i) {
      const double cores = static_cast<double>(rng.uniform_int(2, 16));
      const double gpus = static_cast<double>(rng.uniform_int(0, 2));
      const double speed = 0.5 * static_cast<double>(rng.uniform_int(1, 4));
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
        running.push_back(
            RunningView{m.id(), rng.uniform_int(1, 5) * sim::kSecond, d});
      }
    }
    view.now = 2 * sim::kSecond;
    view.ready = &ready;
    view.running = &running;
    for (const infra::Machine* m :
         static_cast<const infra::Datacenter&>(dc).machines()) {
      if (!rng.chance(0.2)) view.machines.push_back(m);
    }
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

  /// Replaces the ready queue: up to 16 tasks of up to 6 jobs whose submit
  /// times tie across jobs, with up to 8 cores and 0.25-8 s of work.
  void refill_ready() {
    ready.clear();
    for (std::int64_t k = rng.uniform_int(0, 16); k > 0; --k) {
      ReadyTask t = random_task(31);
      t.job = static_cast<workload::JobId>(rng.uniform_int(1, 6));
      t.job_submit = static_cast<sim::SimTime>(t.job % 3) * sim::kSecond;
      t.task_index = ready.size();
      t.work_seconds = 0.25 + quarters(rng, 31);
      ready.push_back(t);
    }
  }

  sim::Rng rng;
  infra::Datacenter dc{"rv", "sim"};
  std::vector<RunningView> running;
  std::vector<ReadyTask> ready;
  std::uint64_t mask[1] = {0};
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

/// Ready-queue indices in FCFS order (submit time, job, task index; ties
/// keep queue order).
std::vector<std::size_t> fcfs_order(const std::vector<ReadyTask>& ready) {
  std::vector<std::size_t> order(ready.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
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
  PlannedCapacity planned(view.machines);
  const std::vector<std::size_t> order = fcfs_order(*view.ready);
  std::vector<Assignment> out;
  std::size_t head_pos = 0;
  // Greedily start the FCFS prefix.
  while (head_pos < order.size()) {
    const ReadyTask& t = (*view.ready)[order[head_pos]];
    auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
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
    auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
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
  PlannedCapacity planned(view.machines);
  std::map<infra::MachineId, sim::SimTime> reservation_at;
  std::vector<Assignment> out;
  for (std::size_t idx : fcfs_order(*view.ready)) {
    const ReadyTask& t = (*view.ready)[idx];
    if (auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view)) {
      const auto r = reservation_at.find(*m);
      if (r == reservation_at.end() ||
          expected_end(view, planned, t, *m) <= r->second) {
        planned.take(*m, t.demand);
        out.push_back(Assignment{idx, *m});
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

std::vector<std::pair<std::size_t, infra::MachineId>> as_pairs(
    const std::vector<Assignment>& assignments) {
  std::vector<std::pair<std::size_t, infra::MachineId>> out;
  out.reserve(assignments.size());
  for (const Assignment& a : assignments) {
    out.emplace_back(a.ready_index, a.machine);
  }
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

TEST(ReleaseProfileTest, SaturatedFloorProposesNothingUnderEveryPolicy) {
  // Two 8-core machines with one core free each; the smallest queued cpu
  // demand is 2 cores, so the queue's floor fits nowhere.
  auto dc = make_zoned_dc(2, 0);
  std::vector<RunningView> running;
  for (infra::MachineId id = 0; id < 2; ++id) {
    const infra::ResourceVector held{7.0, 8.0, 0.0};
    dc.machine(id).allocate(held);
    running.push_back(RunningView{id, 60 * sim::kSecond, held});
  }
  std::vector<ReadyTask> ready;
  for (std::size_t i = 0; i < 6; ++i) {
    ReadyTask t = ready_task(
        infra::ResourceVector{2.0 + static_cast<double>(i % 3), 1.0, 0.0},
        i + 1);
    t.work_seconds = 10.0 * static_cast<double>(i + 1);
    ready.push_back(t);
  }
  SchedulerView view;
  view.ready = &ready;
  view.machines = static_cast<const infra::Datacenter&>(dc).machines();
  view.running = &running;
  for (const std::string& name : all_policy_names()) {
    EXPECT_TRUE(make_policy(name)->decide(view).empty()) << name;
  }
  // Control: with one machine idle again, every policy places something.
  dc.machine(0).release(running[0].demand);
  running.erase(running.begin());
  for (const std::string& name : all_policy_names()) {
    EXPECT_FALSE(make_policy(name)->decide(view).empty()) << name;
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
  EXPECT_NEAR(engine.completed()[0].response_seconds, 200.0, 0.1);
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
