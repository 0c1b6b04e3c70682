// Engine fault paths under the invariant oracle (PR 4): machine crashes
// while tasks run must requeue-or-abandon per the retry budget without
// ever violating job conservation, and a crash/repair cycle during a
// drain must not resurrect (or clear) the drain bit — only drain() and
// undrain() may move it. Every scenario runs with check::InvariantChecker
// attached, so the full invariant set is re-verified at each event
// boundary, not just the final assertions.
#include <gtest/gtest.h>

#include "check/oracle.hpp"
#include "failures/failure_model.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "sched/engine.hpp"
#include "sim/random.hpp"
#include "workload/task.hpp"

namespace mcs::sched {
namespace {

infra::Datacenter make_dc(std::size_t machines, double cores,
                          double memory_gib) {
  infra::Datacenter dc("dc", "eu");
  dc.add_uniform_racks(1, machines,
                       infra::ResourceVector{cores, memory_gib, 0.0}, 1.0);
  return dc;
}

check::InvariantChecker::Options exclusive() {
  check::InvariantChecker::Options o;
  o.exclusive_allocation = true;
  return o;
}

TEST(EngineFaultTest, CrashWithRetryBudgetRequeuesAndConserves) {
  // Two machines, one 4-task job split across them. Crash machine 0 while
  // its tasks run: those tasks are requeued (budget allows) and finish on
  // machine 1; nothing is lost or double-counted.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  EngineConfig config;
  config.max_retries = 2;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 4, 100.0));
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  const JobStats& s = engine.completed()[0];
  EXPECT_FALSE(s.abandoned);
  EXPECT_EQ(s.task_failures, 2u);
  EXPECT_EQ(engine.tasks_killed(), 2u);
  EXPECT_GT(oracle.checks(), 0u);
}

TEST(EngineFaultTest, CrashPastRetryBudgetAbandonsWithoutLeaks) {
  // Retries disabled: the first crash abandons the job. Conservation must
  // hold throughout (submitted == live + completed at every transition —
  // the oracle checks this at each event end) and the floor must come out
  // empty: the abandoned job's other running task is killed with it.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  EngineConfig config;
  config.max_retries = 0;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 4, 100.0));
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);
  EXPECT_EQ(engine.running_count(), 0u);
  EXPECT_EQ(engine.ready_count(), 0u);
  for (infra::MachineId id = 0; id < dc.machine_count(); ++id) {
    EXPECT_EQ(dc.machine(id).live_allocations(), 0u) << "machine " << id;
  }
}

TEST(EngineFaultTest, RetryBudgetBoundaryIsPerTask) {
  // max_retries=1 on a single 1-core machine with repeated crashes: the
  // first crash consumes the task's budget, the second abandons. The
  // job's failure count must reflect both kills.
  auto dc = make_dc(1, 1.0, 4.0);
  sim::Simulator sim;
  EngineConfig config;
  config.max_retries = 1;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 1, 100.0));
  for (int i = 1; i <= 2; ++i) {
    sim.schedule_at(i * 10 * sim::kSecond, [&] {
      dc.machine(0).fail();
      engine.on_machine_failed(0);
      dc.machine(0).repair();
      engine.kick();
    });
  }
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);
  EXPECT_EQ(engine.completed()[0].task_failures, 2u);
}

TEST(EngineFaultTest, CrashDuringDrainDoesNotMoveDrainBit) {
  // Drain a machine whose task is still running, then crash and repair it
  // mid-drain. The drain bit must survive both (the oracle's I6 shadow
  // verifies this at every event boundary): a repair must not resurrect
  // the machine into the placement set until undrain() is called.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(), {});
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 4, 100.0));
  sim.schedule_at(5 * sim::kSecond, [&] { engine.drain(0); });
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.schedule_at(20 * sim::kSecond, [&] {
    dc.machine(0).repair();
    engine.kick();
    // Repair must not clear the drain: the machine stays out of the
    // placement set (I5 would fire if anything started here).
    EXPECT_TRUE(engine.is_draining(0));
  });
  sim.schedule_at(300 * sim::kSecond, [&] {
    EXPECT_TRUE(engine.is_draining(0));
    engine.undrain(0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  EXPECT_FALSE(engine.is_draining(0));
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_FALSE(engine.completed()[0].abandoned);
}

TEST(EngineFaultTest, CrashOfDrainingIdleMachineStaysDrained) {
  // Crash a machine that is draining and already idle: nothing to kill,
  // but the drain bit must still be exactly where drain() left it after
  // the failure and the repair.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(), {});
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.drain(0);
  engine.submit(workload::make_bag_of_tasks(1, 2, 50.0));
  sim.schedule_at(10 * sim::kSecond, [&] {
    ASSERT_TRUE(engine.idle(0));  // drained before arrival: never used
    dc.machine(0).fail();
    engine.on_machine_failed(0);
    dc.machine(0).repair();
    engine.kick();
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  EXPECT_TRUE(engine.is_draining(0));
  EXPECT_EQ(engine.tasks_killed(), 0u);
}

TEST(EngineFaultTest, ScavengingUnderFailuresKeepsEveryInvariant) {
  // Memory scavenging under the oracle: machines carry 2 GiB per core and
  // bag tasks need 1-5 GiB per core, so tasks start on borrowed memory
  // while a failure trace kills and requeues them. Borrowed held vectors,
  // their releases and the live view after each borrowing start must keep
  // every invariant, under every policy.
  for (const std::string& name : all_policy_names()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      sim::Rng rng(seed);
      auto dc = make_dc(8, 8.0, 16.0);
      sim::Simulator sim;
      EngineConfig config;
      config.scavenging.enabled = true;
      ExecutionEngine engine(sim, dc, make_policy(name), config);
      check::InvariantChecker oracle(sim, dc, exclusive());
      oracle.attach(engine);

      failures::FailureModelConfig failure;
      failure.failures_per_machine_day = 10.0;
      failure.mean_repair_seconds = 600.0;
      failures::FailureInjector injector(
          sim, dc,
          failures::generate_failure_trace(dc, failure, 2 * sim::kHour, rng));
      injector.arm(
          [&engine](infra::MachineId id) { engine.on_machine_failed(id); },
          [&engine](infra::MachineId) { engine.kick(); });
      for (workload::JobId id = 1; id <= 30; ++id) {
        const auto tasks = static_cast<std::size_t>(rng.uniform_int(1, 8));
        const double work = rng.uniform(60.0, 600.0);
        const double cores = static_cast<double>(rng.uniform_int(1, 4));
        const double gib_per_core = rng.uniform(1.0, 5.0);
        workload::Job job = workload::make_bag_of_tasks(
            id, tasks, work,
            infra::ResourceVector{cores, cores * gib_per_core, 0.0});
        job.submit_time = sim::from_seconds(rng.uniform(0.0, 600.0));
        engine.submit(std::move(job));
      }
      sim.run_until();

      oracle.verify(engine, "end-of-run");
      EXPECT_TRUE(engine.all_done()) << name << " seed " << seed;
      EXPECT_GT(engine.tasks_scavenged(), 0u) << name << " seed " << seed;
      EXPECT_GT(oracle.checks(), 0u);
    }
  }
}

// ---- Machine changes the engine did not make ---------------------------------
// The engine keeps its usable-machine list and planned capacity across
// rounds and rebuilds them only when the datacenter's mutation counter
// moved behind its back. Each change below lands after the engine has run
// a round, so the first round's build cannot hide it: the next round must
// see it.

/// A one-task job of `cores` cores and 4 GiB running `work` seconds.
workload::Job one_task(workload::JobId id, double cores, double work) {
  return workload::make_bag_of_tasks(id, 1, work,
                                     infra::ResourceVector{cores, 4.0, 0.0});
}

TEST(EngineLiveViewTest, PowerOffWithoutAnEngineCallMovesTheNextStart) {
  // As the fuzzer's power flaps do: machine 0, which ran the first round's
  // task, is powered off with no engine call.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(), {});
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(one_task(1, 1.0, 5.0));  // machine 0, over [0 s, 5 s)
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).set_state(infra::MachineState::kOff);
    engine.submit(one_task(2, 1.0, 50.0));
  });
  sim.schedule_at(11 * sim::kSecond, [&] {
    EXPECT_EQ(dc.machine(1).used().cpu(), 1.0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
}

TEST(EngineLiveViewTest, OutsideAllocationMovesTheNextStart) {
  // As the FaaS platform does on a fleet it shares: an allocation on
  // machine 0 behind the engine's back leaves too little room there.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(), {});
  check::InvariantChecker oracle(sim, dc);  // not exclusive: FaaS holds some
  oracle.attach(engine);

  engine.submit(one_task(1, 1.0, 5.0));  // machine 0, over [0 s, 5 s)
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).allocate(infra::ResourceVector{1.5, 1.0, 0.0});
    engine.submit(one_task(2, 1.0, 50.0));
  });
  sim.schedule_at(11 * sim::kSecond, [&] {
    EXPECT_EQ(dc.machine(0).used().cpu(), 1.5);
    EXPECT_EQ(dc.machine(1).used().cpu(), 1.0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
}

TEST(EngineLiveViewTest, RepairReopensAFailedFullMachine) {
  // A full machine fails under its task and is repaired 10 s later: the
  // requeued full-machine task starts on it again at the repair.
  auto dc = make_dc(1, 2.0, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(), {});
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(one_task(1, 2.0, 100.0));
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.schedule_at(20 * sim::kSecond, [&] {
    dc.machine(0).repair();
    engine.kick();
  });
  sim.schedule_at(21 * sim::kSecond, [&] {
    EXPECT_EQ(engine.running_count(), 1u);
    EXPECT_EQ(dc.machine(0).used().cpu(), 2.0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_EQ(engine.completed()[0].task_failures, 1u);
  EXPECT_EQ(engine.completed()[0].finish, 120 * sim::kSecond);
}

TEST(EngineLiveViewTest, MachineAddedToAFullFloorTakesTheQueuedTask) {
  auto dc = make_dc(1, 2.0, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(), {});
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(one_task(1, 2.0, 100.0));  // fills machine 0
  engine.submit(one_task(2, 2.0, 100.0));  // queued: the floor is full
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.add_machine("late", infra::ResourceVector{2.0, 8.0, 0.0}, 1.0, 0);
    engine.kick();
  });
  sim.schedule_at(11 * sim::kSecond, [&] {
    EXPECT_EQ(dc.machine(1).used().cpu(), 2.0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 2u);
  EXPECT_EQ(engine.completed()[1].finish, 110 * sim::kSecond);
}

// ---- Lifecycle spans on the fault paths (PR 10) -----------------------------

TEST(EngineFaultTest, SpansAttributeRequeuedWaitsToTheRetry) {
  // Crash-with-retry from the first scenario, now with lifecycle spans on:
  // queueing delay is stamped per *attempt*, so the two requeued tasks
  // contribute fresh samples (6 total for 4 tasks) and the retry waits —
  // which start at the crash — keep the per-class queueing attribution
  // monotone instead of silently folding into the first attempt's wait.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  EngineConfig config;
  config.max_retries = 2;
  config.lifecycle_spans = true;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 4, 100.0));
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.run_until();

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  EXPECT_EQ(engine.tasks_killed(), 2u);

  const auto* queueing =
      engine.registry().find_histogram("span.bot.queueing_seconds");
  ASSERT_NE(queueing, nullptr);
  EXPECT_EQ(queueing->count(), 6u);  // 4 first attempts + 2 retries
  // The retried tasks waited from the crash instant to their restart on
  // the surviving machine — a strictly positive queueing sample.
  EXPECT_GT(queueing->max(), 0.0);

  // Service time is recorded per *finished* execution only: killed
  // attempts never reach finish_task, so exactly 4 samples land.
  const auto* service =
      engine.registry().find_histogram("span.bot.service_seconds");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->count(), 4u);

  // One completed job: placement + response + slowdown once, no abandon.
  const auto* placement =
      engine.registry().find_histogram("span.bot.placement_seconds");
  const auto* response =
      engine.registry().find_histogram("span.bot.response_seconds");
  const auto* abandon =
      engine.registry().find_histogram("span.bot.abandon_seconds");
  ASSERT_NE(placement, nullptr);
  ASSERT_NE(response, nullptr);
  ASSERT_NE(abandon, nullptr);
  EXPECT_EQ(placement->count(), 1u);
  EXPECT_EQ(response->count(), 1u);
  EXPECT_EQ(abandon->count(), 0u);
}

TEST(EngineFaultTest, AbandonedJobRecordsOnlyTheAbandonHistogram) {
  // Retries disabled: the crash abandons the job. The per-class abandon
  // histogram records its time-in-system; response/slowdown stay empty
  // (they hold completed jobs only), and the SLO engine sees the abandon
  // as an infinitely-late sample — counted, never good.
  auto dc = make_dc(2, 2.0, 8.0);
  sim::Simulator sim;
  EngineConfig config;
  config.max_retries = 0;
  config.lifecycle_spans = true;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  obs::Registry slo_registry;
  obs::SloTracker slo(obs::parse_slo_specs("all:100000:0.9"), slo_registry,
                      nullptr);
  engine.set_slo(&slo);
  check::InvariantChecker oracle(sim, dc, exclusive());
  oracle.attach(engine);

  engine.submit(workload::make_bag_of_tasks(1, 4, 100.0));
  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.run_until();
  slo.finalize(sim.now());

  oracle.verify(engine, "end-of-run");
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);

  const auto* abandon =
      engine.registry().find_histogram("span.bot.abandon_seconds");
  const auto* response =
      engine.registry().find_histogram("span.bot.response_seconds");
  const auto* slowdown = engine.registry().find_histogram("span.bot.slowdown");
  ASSERT_NE(abandon, nullptr);
  ASSERT_NE(response, nullptr);
  ASSERT_NE(slowdown, nullptr);
  EXPECT_EQ(abandon->count(), 1u);
  EXPECT_GT(abandon->max(), 0.0);  // it occupied the system until the crash
  EXPECT_EQ(response->count(), 0u);
  EXPECT_EQ(slowdown->count(), 0u);
  // Legacy completed-job histograms also skip the abandoned job.
  const auto* legacy =
      engine.registry().find_histogram("job.response_seconds");
  ASSERT_NE(legacy, nullptr);
  EXPECT_EQ(legacy->count(), 0u);

  // An 'all'-class SLO with an unreachably high threshold still marks the
  // abandoned job bad: infinity beats any finite threshold.
  EXPECT_EQ(slo_registry.counter("slo.all.samples").value(), 1u);
  EXPECT_EQ(slo_registry.counter("slo.all.good").value(), 0u);
}

TEST(EngineFaultTest, DefaultConfigRegistersNoSpanInstruments) {
  // The spans are strictly opt-in: a default-config engine must not even
  // register the histograms (the scalar digest goldens pin the default
  // registry shape).
  auto dc = make_dc(1, 2.0, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(), {});
  engine.submit(workload::make_bag_of_tasks(1, 1, 5.0));
  sim.run_until();
  EXPECT_EQ(engine.registry().find_histogram("span.bot.queueing_seconds"),
            nullptr);
  EXPECT_EQ(engine.registry().find_histogram("span.workflow.response_seconds"),
            nullptr);
}

}  // namespace
}  // namespace mcs::sched
