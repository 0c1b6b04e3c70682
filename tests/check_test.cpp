// Tests for the oracle & fuzzing layer (src/check): the invariant oracle
// must pass clean runs and catch planted corruption; scenario specs must
// round-trip through their text form; the fuzzer must be bit-identical at
// any thread count with single-seed replays matching their batch cell; and
// the shrinker must leave passing specs alone.
#include <gtest/gtest.h>

#include "check/fuzz.hpp"
#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "metrics/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "sched/engine.hpp"
#include "workload/task.hpp"

namespace mcs::check {
namespace {

infra::Datacenter make_dc(std::size_t machines) {
  infra::Datacenter dc("dc", "eu");
  dc.add_uniform_racks(1, machines, infra::ResourceVector{4.0, 16.0, 0.0},
                       1.0);
  return dc;
}

InvariantChecker::Options exclusive() {
  InvariantChecker::Options o;
  o.exclusive_allocation = true;
  return o;
}

TEST(OracleTest, CleanRunPassesAndCounts) {
  auto dc = make_dc(2);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  for (workload::JobId id = 1; id <= 8; ++id) {
    engine.submit(workload::make_bag_of_tasks(id, 4, 30.0));
  }
  EXPECT_NO_THROW(sim.run_until());
  EXPECT_NO_THROW(oracle.verify(engine, "end-of-run"));
  EXPECT_TRUE(engine.all_done());
  EXPECT_GT(oracle.checks(), 0u);
  EXPECT_GT(oracle.transitions(), 0u);
}

TEST(OracleTest, ForeignAllocationBreaksExclusiveAccounting) {
  // In exclusive mode the engine must be the only allocator; claiming
  // resources behind its back must trip I4 on the next sweep.
  auto dc = make_dc(2);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 2, 30.0));
  sim.schedule_at(5 * sim::kSecond,
                  [&] { dc.machine(0).allocate({1.0, 1.0, 0.0}); });
  EXPECT_THROW(sim.run_until(), OracleViolation);
}

TEST(OracleTest, SilentMachineFailureBreaksPlacementInvariant) {
  // Failing a machine without telling the engine leaves its running
  // tasks pointing at an unusable machine — I5 must fire at the next
  // event boundary.
  auto dc = make_dc(1);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 2, 30.0));
  sim.schedule_at(5 * sim::kSecond, [&] { dc.machine(0).fail(); });
  EXPECT_THROW(sim.run_until(), OracleViolation);
}

TEST(OracleTest, UnobservedDrainBreaksShadow) {
  // Drain applied while the oracle is not observing: its shadow goes
  // stale, and the next explicit sweep must report I6.
  auto dc = make_dc(2);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.set_observer(nullptr);  // simulate a missed notification
  engine.drain(0);
  EXPECT_THROW(oracle.verify(engine, "stale-shadow"), OracleViolation);
}

TEST(OracleTest, DetachRestoresNullHooks) {
  auto dc = make_dc(1);
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
  {
    InvariantChecker oracle(sim, dc);
    oracle.attach(engine);
    EXPECT_EQ(engine.observer(), &oracle);
    EXPECT_EQ(sim.hook(), &oracle);
  }  // destructor detaches
  EXPECT_EQ(engine.observer(), nullptr);
  EXPECT_EQ(sim.hook(), nullptr);
}

TEST(FuzzSpecTest, TextRoundTripPreservesBehavior) {
  for (const bool het : {false, true}) {
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
      ScenarioSpec spec = make_spec(seed, het);
      if (het) spec.slo = "all:300:0.9;bot:120:0.8";  // writes an slo= line
      const ScenarioSpec parsed = from_text(to_text(spec));
      const SeedRunResult a = run_spec(spec);
      const SeedRunResult b = run_spec(parsed);
      EXPECT_EQ(a.digest, b.digest) << "seed " << seed << " het " << het;
      EXPECT_EQ(a.events, b.events) << "seed " << seed << " het " << het;
      EXPECT_EQ(to_text(spec), to_text(parsed))
          << "seed " << seed << " het " << het;
    }
  }
}

TEST(FuzzSpecTest, FromTextRejectsMalformedLines) {
  EXPECT_THROW(from_text("not a key value line"), std::invalid_argument);
  EXPECT_THROW(from_text("racks=banana"), std::invalid_argument);
  // An slo= line must parse and name classes jobs can belong to.
  EXPECT_THROW(from_text("slo=bogus"), std::invalid_argument);
  EXPECT_THROW(from_text("slo=bots:60:0.9"), std::invalid_argument);
  EXPECT_NO_THROW(from_text("slo=bot:60:0.9;workflow:600:0.9"));
  // Comments and unknown keys are fine (forward compatibility).
  EXPECT_NO_THROW(from_text("# comment\nfuture_knob=3\nracks=2"));
  // Values are whole: no trailing text, no sign an unsigned field lacks,
  // bools 0 or 1, enums within their enumerators, doubles finite.
  for (const std::string line :
       {"racks=3x", "heterogeneous=1junk", "heterogeneous=2",
        "trace.job_count=-3", "trace.arrivals=7", "failure.mode=9",
        "failure.mode=-1", "accel_fraction=0.5x", "racks= 3", "seed=+1",
        "spread_limit=4294967296", "score_policy=bogus",
        "score_policy=random_hash", "accel_fraction=nan",
        "trace.mean_task_seconds=inf", "trace.memory_per_core_gib=nan"}) {
    const std::string key = line.substr(0, line.find('='));
    try {
      (void)from_text("# header\n" + line);
      ADD_FAILURE() << line << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "repro line 2: malformed value for '" + key + "'");
    }
  }
  // A score policy is empty (unscored) or a name to_string gives.
  for (const std::string name : {"", "none", "random-hash",
                                 "free-share-variance", "squared-min-delta"}) {
    EXPECT_NO_THROW(from_text("score_policy=" + name)) << name;
  }
  // Both committed repros carry the all-ones limits.
  EXPECT_EQ(from_text("job_limit=18446744073709551615").job_limit,
            static_cast<std::size_t>(-1));
  EXPECT_EQ(from_text("trace.arrivals=2\nfailure.mode=3\nhorizon=-1")
                .failure.mode,
            failures::CorrelationMode::kSpaceAndTime);
}

TEST(FuzzSpecTest, FromTextRejectsUnknownPolicy) {
  // make_policy would throw on the name mid-run; the parser rejects it.
  try {
    (void)from_text("policy=bogus");
    ADD_FAILURE() << "policy=bogus parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "repro line 1: malformed value for 'policy'");
  }
  for (const std::string& name : sched::all_policy_names()) {
    EXPECT_EQ(from_text("policy=" + name).policy, name);
  }
}

TEST(FuzzTest, BadFailureParameterIsReportedNotThrown) {
  ScenarioSpec spec = make_spec(1, false);
  spec.failures_enabled = true;
  spec.failure.mean_repair_seconds = 0.0;
  const SeedRunResult r = run_spec(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.violation.rfind("EXCEPTION: ", 0), 0u) << r.violation;
}

TEST(FuzzTest, SeedRunsAreReproducible) {
  const SeedRunResult a = run_spec(make_spec(123, false));
  const SeedRunResult b = run_spec(make_spec(123, false));
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.transitions, b.transitions);
}

TEST(FuzzTest, BatchDigestIsThreadCountInvariant) {
  parallel::ThreadPool one(1);
  parallel::ThreadPool four(4);
  FuzzOptions opt;
  opt.seeds = 24;
  opt.base_seed = 9;
  opt.pool = &one;
  const FuzzReport a = run_fuzz(opt);
  opt.pool = &four;
  const FuzzReport b = run_fuzz(opt);
  EXPECT_EQ(a.summary_digest, b.summary_digest);
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.seeds_run, 24u);
  EXPECT_TRUE(a.failing_indices.empty())
      << a.failures.front().violation;
}

TEST(FuzzTest, SingleSeedReplayMatchesBatchCell) {
  // `mcs_check --seed I` must rerun exactly the scenario the batch ran at
  // index I: the batch summary digest recomputed from per-index replays
  // must match run_fuzz's.
  parallel::ThreadPool pool(2);
  FuzzOptions opt;
  opt.seeds = 6;
  opt.base_seed = 5;
  opt.pool = &pool;
  const FuzzReport report = run_fuzz(opt);

  metrics::Digest recomputed;
  for (std::size_t i = 0; i < opt.seeds; ++i) {
    const SeedRunResult r =
        run_spec(make_spec(seed_for_index(opt.base_seed, i), false));
    recomputed.add_u64(r.seed);
    recomputed.add_u64(r.digest);
  }
  EXPECT_EQ(recomputed.value(), report.summary_digest);
}

TEST(ShrinkTest, PassingSpecIsReturnedUnshrunk) {
  ScenarioSpec spec = make_spec(1, false);
  const ShrinkResult r = shrink(spec);
  EXPECT_FALSE(r.failing);
  EXPECT_TRUE(r.result.ok);
  EXPECT_EQ(r.attempts, 1u);
  EXPECT_EQ(to_text(r.spec), to_text(spec));
}

TEST(ShrinkTest, FailingSpecShrinksToThePinnedMinimum) {
  // The spec FuzzTest.BadFailureParameterIsReportedNotThrown runs: its
  // failure model throws when it draws a repair time, so every candidate
  // that keeps failures on and one inside the horizon still fails. The
  // counts pin how many candidate runs the shrinker makes and keeps.
  ScenarioSpec spec = make_spec(1, false);
  spec.failures_enabled = true;
  spec.failure.mean_repair_seconds = 0.0;
  const ShrinkResult r = shrink(spec);
  EXPECT_TRUE(r.failing);
  EXPECT_FALSE(r.result.ok);
  EXPECT_EQ(r.attempts, 135u);
  EXPECT_EQ(r.accepted, 116u);
  EXPECT_EQ(r.spec.job_limit, 1u);
  EXPECT_EQ(r.spec.failure_limit, 1u);
  EXPECT_EQ(r.spec.flap_count, 1u);
  EXPECT_EQ(r.spec.racks, 1u);
  EXPECT_EQ(r.spec.per_rack, 5u);
  EXPECT_EQ(r.spec.horizon, 6954058906);
}

}  // namespace
}  // namespace mcs::check
