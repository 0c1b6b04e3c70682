// Tests for the execution engine, allocation policies (including the
// skeleton policies that mirror the Schopf pipeline stages), provisioning,
// portfolio scheduling, scavenging, and the Fig. 3 datacenter stack
// (src/sched).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "fixtures.hpp"
#include "failures/failure_model.hpp"
#include "sched/datacenter_stack.hpp"
#include "sched/engine.hpp"
#include "sched/portfolio.hpp"
#include "sched/provisioning.hpp"
#include "sched/scavenging.hpp"
#include "sim/random.hpp"
#include "workload/trace.hpp"
#include "workload/workflow.hpp"

namespace mcs::sched {
namespace {

infra::Datacenter make_dc(std::size_t machines = 4, double cores = 8.0,
                          double speed = 1.0) {
  infra::Datacenter dc("dc", "eu");
  dc.add_uniform_racks(1, machines,
                       infra::ResourceVector{cores, cores * 4.0, 0.0}, speed);
  return dc;
}

// ---- engine basics -------------------------------------------------------------

TEST(EngineTest, RunsSingleTaskToCompletion) {
  auto dc = make_dc(1);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  workload::Job job = workload::make_bag_of_tasks(1, 1, 100.0);
  engine.submit(job);
  sim.run_until();
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  const JobStats& s = engine.completed()[0];
  EXPECT_NEAR(s.response_seconds(), 100.0, 0.01);
  EXPECT_NEAR(s.slowdown(), 1.0, 0.01);
}

TEST(EngineTest, MachineSpeedScalesRuntime) {
  auto dc = make_dc(1, 8.0, /*speed=*/2.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(1, 1, 100.0));
  sim.run_until();
  EXPECT_NEAR(engine.completed()[0].response_seconds(), 50.0, 0.01);
}

TEST(EngineTest, RespectsDependencies) {
  auto dc = make_dc(4);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  // Chain of 4: must serialize despite 4 idle machines.
  engine.submit(workload::make_chain(1, 4, 25.0));
  sim.run_until();
  EXPECT_NEAR(engine.completed()[0].response_seconds(), 100.0, 0.1);
}

TEST(EngineTest, ParallelTasksOverlap) {
  auto dc = make_dc(4, 8.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  // 32 single-core tasks on 32 cores: one wave.
  engine.submit(workload::make_bag_of_tasks(1, 32, 60.0));
  sim.run_until();
  EXPECT_NEAR(engine.completed()[0].response_seconds(), 60.0, 0.5);
}

TEST(EngineTest, QueueingDelaysSecondWave) {
  auto dc = make_dc(1, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  // 8 tasks, 4 cores: two waves of 30s.
  engine.submit(workload::make_bag_of_tasks(1, 8, 30.0));
  sim.run_until();
  EXPECT_NEAR(engine.completed()[0].response_seconds(), 60.0, 0.5);
  EXPECT_GT(engine.busy_core_seconds(), 239.0);
}

TEST(EngineTest, NeverOvercommitsMachines) {
  auto dc = make_dc(2, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_sjf());
  sim::Rng rng(3);
  workload::TraceConfig config;
  config.job_count = 40;
  config.arrival_rate_per_hour = 2000.0;
  config.mean_task_seconds = 20.0;
  engine.submit_all(workload::generate_trace(config, rng));
  // Invariant check every simulated second.
  bool ok = true;
  sim.schedule_recurring(0, [&]() -> std::optional<sim::SimTime> {
    for (const infra::Machine* m :
         static_cast<const infra::Datacenter&>(dc).machines()) {
      if (m->used().cpu() > m->capacity().cpu() + 1e-9) ok = false;
    }
    if (engine.all_done()) return std::nullopt;
    return sim::kSecond;
  });
  sim.run_until();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(engine.all_done());
}

TEST(EngineTest, SubmittingDuplicateJobIdThrows) {
  auto dc = make_dc();
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(5, 1, 1.0));
  EXPECT_THROW(engine.submit(workload::make_bag_of_tasks(5, 1, 1.0)),
               std::invalid_argument);
}

TEST(EngineTest, TaskTooBigForAnyMachineIsAbandoned) {
  // A demand no machine's *total* capacity can ever hold is rejected at
  // arrival rather than parked forever: a forever-pending job would pin
  // all_done() false and spin monitor loops (autoscaler, portfolio).
  auto dc = make_dc(2, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(
      1, 1, 10.0, infra::ResourceVector{16.0, 1.0, 0.0}));
  sim.run_until();
  EXPECT_TRUE(engine.all_done());
  EXPECT_EQ(engine.ready_count(), 0u);
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);
}

TEST(EngineTest, EndPastTheClockSaturatesAtTimeInfinity) {
  // Job 2 starts at 5 s with a 1e300 s run time and a 1e300 s deadline:
  // its end and its deadline saturate at kTimeInfinity instead of
  // overflowing, and job 1 keeps its finite finish.
  infra::Datacenter dc("dc", "eu");
  dc.add_machine("m0", infra::ResourceVector{8.0, 32.0, 0.0}, 1.0, 0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(1, 1, 10.0));
  workload::Job late = workload::make_bag_of_tasks(2, 1, 1e300);
  late.submit_time = 5 * sim::kSecond;
  late.sla.add(core::deadline_slo(1e300));
  engine.submit(late);
  ASSERT_NO_THROW(sim.run_until());
  EXPECT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 2u);
  EXPECT_EQ(engine.completed()[0].id, 1u);
  EXPECT_EQ(engine.completed()[0].finish, 10 * sim::kSecond);
  EXPECT_EQ(engine.completed()[1].id, 2u);
  EXPECT_EQ(engine.completed()[1].first_start, 5 * sim::kSecond);
  EXPECT_EQ(engine.completed()[1].finish, sim::kTimeInfinity);
}

// ---- policy comparisons -----------------------------------------------------------

workload::Job two_user_burst(workload::JobId id, const std::string& user,
                             std::size_t n, double work) {
  workload::Job j = workload::make_bag_of_tasks(id, n, work);
  j.user = user;
  return j;
}

TEST(PolicyTest, SjfBeatsFcfsOnMeanWaitWithMixedSizes) {
  // Classic: many short tasks behind a few long ones.
  auto run = [](std::unique_ptr<AllocationPolicy> policy) {
    auto dc = make_dc(1, 2.0);
    std::vector<workload::Job> jobs;
    jobs.push_back(workload::make_bag_of_tasks(1, 4, 600.0));  // long
    for (workload::JobId i = 2; i <= 21; ++i) {
      workload::Job j = workload::make_bag_of_tasks(i, 1, 10.0);  // short
      j.submit_time = sim::kSecond;  // arrive just after
      jobs.push_back(j);
    }
    return run_workload(dc, std::move(jobs), std::move(policy));
  };
  const RunResult fcfs = run(make_fcfs());
  const RunResult sjf = run(make_sjf());
  EXPECT_LT(sjf.mean_wait_seconds, fcfs.mean_wait_seconds * 0.8);
}

TEST(PolicyTest, HeftPrefersFastMachines) {
  infra::Datacenter dc("het", "eu");
  dc.add_machine("slow", infra::ResourceVector{4, 16, 0}, 1.0, 0);
  dc.add_machine("fast", infra::ResourceVector{4, 16, 0}, 3.0, 0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_heft());
  engine.submit(workload::make_bag_of_tasks(1, 4, 90.0));
  sim.run_until();
  // All four fit on the fast machine (4 cores): expect ~30s, not 90s.
  EXPECT_LT(engine.completed()[0].response_seconds(), 45.0);
}

TEST(PolicyTest, EasyBackfillingProtectsWideJobFromStarvation) {
  // Greedy FCFS (which skips a non-fitting head) lets a stream of small
  // tasks starve a wide job; EASY's reservation guarantees the wide job
  // starts once the head's resources free up.
  auto build_jobs = [] {
    std::vector<workload::Job> jobs;
    // Head: holds 4 of 10 cores for 100s.
    jobs.push_back(workload::make_bag_of_tasks(
        1, 1, 100.0, infra::ResourceVector{4.0, 4.0, 0.0}));
    // Wide: needs 8 cores — cannot start until the head finishes.
    jobs.push_back(workload::make_bag_of_tasks(
        2, 1, 50.0, infra::ResourceVector{8.0, 8.0, 0.0}));
    // Stream of small tasks arriving every 10s that would otherwise keep
    // the freed cores busy forever.
    for (workload::JobId i = 3; i <= 40; ++i) {
      workload::Job j = workload::make_bag_of_tasks(
          i, 1, 30.0, infra::ResourceVector{2.0, 2.0, 0.0});
      j.submit_time = static_cast<sim::SimTime>(i - 3) * 10 * sim::kSecond;
      jobs.push_back(j);
    }
    return jobs;
  };
  auto wide_wait = [&](std::unique_ptr<AllocationPolicy> policy) {
    auto dc = make_dc(1, 10.0);
    const RunResult r = run_workload(dc, build_jobs(), std::move(policy));
    for (const JobStats& j : r.jobs) {
      if (j.id == 2) return j.wait_seconds();
    }
    return -1.0;
  };
  const double fcfs_wait = wide_wait(make_fcfs());
  const double easy_wait = wide_wait(make_easy_backfilling());
  EXPECT_LE(easy_wait, 110.0);          // reservation honoured (~100s)
  EXPECT_GT(fcfs_wait, easy_wait * 1.5);  // greedy FCFS starves it
}

TEST(PolicyTest, FairShareInterleavesUsers) {
  auto dc = make_dc(1, 1.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fair_share());
  // Alice floods first; Bob submits one task at t=1s. Under fair-share,
  // Bob's task runs before most of Alice's backlog.
  workload::Job alice = two_user_burst(1, "alice", 20, 10.0);
  workload::Job bob = two_user_burst(2, "bob", 1, 10.0);
  bob.submit_time = sim::kSecond;
  engine.submit(alice);
  engine.submit(bob);
  sim.run_until();
  const auto& done = engine.completed();
  ASSERT_EQ(done.size(), 2u);
  const JobStats& bob_stats = done[0].id == bob.id ? done[0] : done[1];
  // Bob finished long before Alice's 200s backlog completed.
  EXPECT_LT(bob_stats.response_seconds(), 40.0);
}

TEST(PolicyTest, ConservativeBackfillNeverDelaysReservedTasks) {
  // Machine of 10 cores. Head job holds 4 cores for 100 s; a wide 8-core
  // job queues with a reservation at t=100; a 2-core 200 s task must NOT
  // backfill under conservative rules (it would run past the wide job's
  // reservation on the same machine), while EASY-style greedy filling of
  // other machines is unaffected.
  auto wide_wait = [](std::unique_ptr<AllocationPolicy> policy) {
    auto dc = make_dc(1, 10.0);
    std::vector<workload::Job> jobs;
    jobs.push_back(workload::make_bag_of_tasks(
        1, 1, 100.0, infra::ResourceVector{4.0, 4.0, 0.0}));
    jobs.push_back(workload::make_bag_of_tasks(
        2, 1, 50.0, infra::ResourceVector{8.0, 8.0, 0.0}));
    jobs.push_back(workload::make_bag_of_tasks(
        3, 1, 200.0, infra::ResourceVector{2.0, 2.0, 0.0}));
    const RunResult r = run_workload(dc, std::move(jobs), std::move(policy));
    for (const JobStats& j : r.jobs) {
      if (j.id == 2) return j.wait_seconds();
    }
    return -1.0;
  };
  // Conservative: the 200 s task waits; wide job starts at ~100 s.
  EXPECT_LE(wide_wait(make_conservative_backfilling()), 105.0);
  // Completeness: everything still finishes under conservative rules.
  auto dc = make_dc(2, 8.0);
  std::vector<workload::Job> jobs;
  jobs.push_back(workload::make_bag_of_tasks(1, 12, 20.0));
  jobs.push_back(workload::make_chain(2, 4, 15.0));
  const RunResult r =
      run_workload(dc, std::move(jobs), make_conservative_backfilling());
  EXPECT_EQ(r.jobs.size(), 2u);
  EXPECT_EQ(r.abandoned, 0u);
}

TEST(PolicyTest, ConservativeAtLeastAsProtectiveAsGreedyFcfs) {
  // Under the starvation stream of the EASY test, conservative backfilling
  // also protects the wide job (reservations for everyone include the head).
  auto wide_wait = [](std::unique_ptr<AllocationPolicy> policy) {
    auto dc = make_dc(1, 10.0);
    std::vector<workload::Job> jobs;
    jobs.push_back(workload::make_bag_of_tasks(
        1, 1, 100.0, infra::ResourceVector{4.0, 4.0, 0.0}));
    jobs.push_back(workload::make_bag_of_tasks(
        2, 1, 50.0, infra::ResourceVector{8.0, 8.0, 0.0}));
    for (workload::JobId i = 3; i <= 40; ++i) {
      workload::Job j = workload::make_bag_of_tasks(
          i, 1, 30.0, infra::ResourceVector{2.0, 2.0, 0.0});
      j.submit_time = static_cast<sim::SimTime>(i - 3) * 10 * sim::kSecond;
      jobs.push_back(j);
    }
    const RunResult r = run_workload(dc, std::move(jobs), std::move(policy));
    for (const JobStats& j : r.jobs) {
      if (j.id == 2) return j.wait_seconds();
    }
    return -1.0;
  };
  EXPECT_LE(wide_wait(make_conservative_backfilling()), 110.0);
}

TEST(PolicyTest, MinMinRunsShortTasksFirstMaxMinOpposite) {
  auto mean_response_of_short = [](std::unique_ptr<AllocationPolicy> p) {
    auto dc = make_dc(1, 1.0);
    std::vector<workload::Job> jobs;
    jobs.push_back(workload::make_bag_of_tasks(1, 3, 100.0));
    jobs.push_back(workload::make_bag_of_tasks(2, 3, 5.0));
    const RunResult r = run_workload(dc, std::move(jobs), std::move(p));
    for (const JobStats& j : r.jobs) {
      if (j.id == 2) return j.response_seconds();
    }
    return -1.0;
  };
  EXPECT_LT(mean_response_of_short(make_min_min()),
            mean_response_of_short(make_max_min()));
}

TEST(PolicyTest, AllFactoriesProduceWorkingPolicies) {
  for (const std::string& name : all_policy_names()) {
    auto dc = make_dc(2, 4.0);
    std::vector<workload::Job> jobs;
    jobs.push_back(workload::make_bag_of_tasks(1, 6, 10.0));
    jobs.push_back(workload::make_chain(2, 3, 5.0));
    const RunResult r = run_workload(dc, std::move(jobs), make_policy(name));
    EXPECT_EQ(r.jobs.size(), 2u) << name;
    EXPECT_EQ(r.abandoned, 0u) << name;
  }
  EXPECT_THROW((void)make_policy("nonsense"), std::invalid_argument);
}

// ---- failures x engine ----------------------------------------------------------

TEST(EngineFailureTest, TasksKilledByFailureAreRetried) {
  auto dc = make_dc(2, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(1, 8, 100.0));

  std::vector<failures::FailureEvent> trace;
  trace.push_back(
      failures::FailureEvent{30 * sim::kSecond, {0}, 20 * sim::kSecond});
  failures::FailureInjector injector(sim, dc, trace);
  injector.arm([&](infra::MachineId id) { engine.on_machine_failed(id); },
               [&](infra::MachineId) { engine.kick(); });

  sim.run_until();
  ASSERT_TRUE(engine.all_done());
  const JobStats& s = engine.completed()[0];
  EXPECT_GT(engine.tasks_killed(), 0u);
  EXPECT_GT(s.task_failures, 0u);
  EXPECT_FALSE(s.abandoned);
  // Lost work stretches the response beyond the no-failure 200s bound.
  EXPECT_GT(s.response_seconds(), 100.0);
}

TEST(EngineFailureTest, RetryBudgetExhaustionAbandonsJob) {
  auto dc = make_dc(1, 4.0);
  sim::Simulator sim;
  EngineConfig config;
  config.max_retries = 1;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  engine.submit(workload::make_bag_of_tasks(1, 1, 1000.0));

  std::vector<failures::FailureEvent> trace;
  for (int i = 1; i <= 3; ++i) {
    trace.push_back(failures::FailureEvent{
        i * 100 * sim::kSecond, {0}, 10 * sim::kSecond});
  }
  failures::FailureInjector injector(sim, dc, trace);
  injector.arm([&](infra::MachineId id) { engine.on_machine_failed(id); },
               [&](infra::MachineId) { engine.kick(); });
  sim.run_until();
  ASSERT_EQ(engine.completed().size(), 1u);
  EXPECT_TRUE(engine.completed()[0].abandoned);
}

// ---- scavenging ---------------------------------------------------------------------

TEST(ScavengingTest, EnablesOtherwiseUnplaceableTasks) {
  // Tasks need 12 GiB; machines have 8 GiB: only scavenging can run them.
  // At penalty 0 a borrowing start keeps a multiplier of 1 and still counts.
  std::vector<workload::Job> jobs;
  jobs.push_back(workload::make_bag_of_tasks(
      1, 4, 50.0, infra::ResourceVector{2.0, 12.0, 0.0}));
  for (const double penalty : {0.6, 0.0}) {
    ScavengingConfig config;
    config.max_borrow_fraction = 0.5;
    config.penalty = penalty;
    const auto cmp = compare_scavenging(jobs, 4, 4.0, 8.0, config);
    EXPECT_EQ(cmp.off.jobs_completed, 0u);
    EXPECT_EQ(cmp.on.jobs_completed, 1u);
    EXPECT_GT(cmp.on.tasks_scavenged, 0u) << "penalty " << penalty;
  }
}

TEST(ScavengingTest, PenaltySlowsScavengedTasks) {
  std::vector<workload::Job> jobs;
  jobs.push_back(workload::make_bag_of_tasks(
      1, 1, 100.0, infra::ResourceVector{1.0, 12.0, 0.0}));
  ScavengingConfig config;
  config.max_borrow_fraction = 0.5;
  config.penalty = 0.6;
  const auto cmp = compare_scavenging(jobs, 1, 4.0, 8.0, config);
  // Borrowed fraction = (12-8)/12 = 1/3; runtime = 100 * (1 + 0.6/3) = 120.
  EXPECT_NEAR(cmp.on.makespan_seconds, 120.0, 1.0);
}

TEST(ScavengingTest, NeverBorrowsWhenNetIsShort) {
  // Job 2 is short of memory (4 GiB wanted, 2 free) and of net (1 wanted,
  // 0.5 free): scavenging borrows memory only, so job 2 waits for job 1.
  infra::Datacenter dc("dc", "eu");
  dc.add_machine("m0", infra::ResourceVector{8.0, 32.0, 0.0, 4.0}, 1.0, 0);
  sim::Simulator sim;
  EngineConfig config;
  config.scavenging.enabled = true;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  engine.submit(workload::make_bag_of_tasks(
      1, 1, 100.0, infra::ResourceVector{1.0, 30.0, 0.0, 3.5}));
  workload::Job second = workload::make_bag_of_tasks(
      2, 1, 10.0, infra::ResourceVector{1.0, 4.0, 0.0, 1.0});
  second.submit_time = sim::kSecond;
  engine.submit(std::move(second));
  sim.run_until();
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 2u);
  EXPECT_EQ(engine.completed()[1].id, 2u);
  EXPECT_EQ(engine.completed()[1].first_start, 100 * sim::kSecond);
  EXPECT_EQ(engine.tasks_scavenged(), 0u);
}

// ---- the admission rule ------------------------------------------------------------

/// The engine's start test before admit(), kept as a reference: a whole fit
/// by `used + demand <= capacity`, else its inline borrow branch.
std::optional<Admission> reference_start(const infra::Machine& m,
                                         const infra::ResourceVector& demand,
                                         const ScavengingConfig& config) {
  const auto sum_fits = [&m](const infra::ResourceVector& r) {
    return m.usable() && (m.used() + r).fits_within(m.capacity());
  };
  infra::ResourceVector held = demand;
  if (sum_fits(held)) return Admission{held, 1.0, false};
  const infra::ResourceVector avail = m.available();
  const bool cores_ok = held.cpu() <= avail.cpu() && held.gpu() <= avail.gpu();
  if (!config.enabled || !cores_ok || held.mem() <= avail.mem()) {
    return std::nullopt;
  }
  const double local = std::max(avail.mem(), 0.0);
  const double borrowed_fraction =
      held.mem() <= 0.0 ? 0.0 : (held.mem() - local) / held.mem();
  held.mem() = local;
  if (borrowed_fraction > config.max_borrow_fraction || !sum_fits(held)) {
    return std::nullopt;
  }
  return Admission{held, 1.0 + config.penalty * borrowed_fraction, true};
}

/// The abandon-at-arrival test before admit(), kept as a reference: some
/// capacity covers the demand with at most max_borrow_fraction of its
/// memory remote.
bool reference_satisfiable(const infra::ResourceVector& demand,
                           const infra::ResourceVector& capacity,
                           const ScavengingConfig& config) {
  const double needed_memory =
      config.enabled ? demand.mem() * (1.0 - config.max_borrow_fraction)
                     : demand.mem();
  return demand.cpu() <= capacity.cpu() && needed_memory <= capacity.mem() &&
         demand.gpu() <= capacity.gpu() && demand.net() <= capacity.net();
}

TEST(AdmitTest, MatchesTheStartAndArrivalTestsItReplaced) {
  // Quantities are multiples of 1/4, so the sum test and the difference
  // test agree, and so do the fraction and product forms of the borrow
  // limit: any disagreement is a change of rule, not of rounding.
  sim::Rng rng(25);
  const auto quarters = [&rng](double hi) {
    return static_cast<double>(
               rng.uniform_int(0, static_cast<std::int64_t>(hi * 4.0))) /
           4.0;
  };
  std::vector<ScavengingConfig> configs;
  for (const bool enabled : {false, true}) {
    for (const double fraction : {0.0, 0.25, 0.5, 1.0}) {
      for (const double penalty : {0.0, 0.6}) {
        configs.push_back(ScavengingConfig{enabled, fraction, penalty});
      }
    }
  }
  std::size_t whole = 0, borrowed = 0, refused = 0, unpenalized_borrows = 0;
  std::size_t satisfiable = 0, unsatisfiable = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const infra::ResourceVector cap{
        static_cast<double>(rng.uniform_int(1, 16)), quarters(64.0),
        static_cast<double>(rng.uniform_int(0, 4)), quarters(16.0)};
    infra::Machine m(0, "m", cap, 1.0);
    m.allocate(infra::ResourceVector{quarters(cap.cpu()), quarters(cap.mem()),
                                     std::floor(quarters(cap.gpu())),
                                     quarters(cap.net())});
    // Fits whole, or runs short of one of cpu, gpu or net (memory too, at
    // random), or of memory only; or needs no memory at all.
    const infra::ResourceVector free = m.available();
    infra::ResourceVector demand{quarters(free.cpu()), quarters(free.mem()),
                                 std::floor(quarters(free.gpu())),
                                 quarters(free.net())};
    const auto short_of_memory = [&] {
      demand.mem() = free.mem() + 0.25 + quarters(free.mem() + 4.0);
    };
    const std::int64_t kind = rng.uniform_int(0, 7);
    switch (kind) {
      case 0: demand.cpu() = free.cpu() + 0.25 + quarters(2.0); break;
      case 1: demand.gpu() = std::floor(free.gpu()) + 1.0; break;
      case 2: demand.net() = free.net() + 0.25 + quarters(2.0); break;
      case 3: case 4: short_of_memory(); break;
      case 5: demand.mem() = 0.0; break;
      default: break;
    }
    if (kind <= 2 && rng.chance(0.5)) short_of_memory();
    for (const ScavengingConfig& config : configs) {
      const auto got = admit(demand, free, config);
      const auto want = reference_start(m, demand, config);
      ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
      if (got.has_value()) {
        EXPECT_EQ(got->held, want->held) << "trial " << trial;
        EXPECT_EQ(got->runtime_multiplier, want->runtime_multiplier);
        EXPECT_EQ(got->borrowed, want->borrowed);
        ++(got->borrowed ? borrowed : whole);
        if (got->borrowed && got->runtime_multiplier == 1.0) {
          ++unpenalized_borrows;
        }
      } else {
        ++refused;
      }
      const bool can_start = admit(demand, cap, config).has_value();
      EXPECT_EQ(can_start, reference_satisfiable(demand, cap, config))
          << "trial " << trial;
      ++(can_start ? satisfiable : unsatisfiable);
    }
  }
  // Of the 32,000 probes, seed 25 starts 11,504 whole and 1,850 on
  // borrowed memory (925 of them at no penalty) and refuses 18,646.
  EXPECT_GE(whole, 6000u);
  EXPECT_GE(borrowed, 900u);
  EXPECT_GE(refused, 9000u);
  EXPECT_GE(unpenalized_borrows, 450u);
  EXPECT_GE(satisfiable, 12000u);
  EXPECT_GE(unsatisfiable, 3500u);
}

// ---- provisioning ----------------------------------------------------------------------

TEST(ProvisioningTest, BootDelayDefersCapacity) {
  auto dc = make_dc(8, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  ProvisioningConfig config;
  config.boot_delay = 100 * sim::kSecond;
  ProvisionedPool pool(sim, dc, engine, config);
  pool.start_with(2);
  EXPECT_EQ(pool.active(), 2u);

  pool.set_target(5);
  EXPECT_EQ(pool.active(), 2u);  // not yet booted
  sim.run_until(101 * sim::kSecond);
  EXPECT_EQ(pool.active(), 5u);
}

TEST(ProvisioningTest, ShrinkDrainsBusyMachines) {
  auto dc = make_dc(4, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  ProvisionedPool pool(sim, dc, engine, {});
  pool.start_with(4);
  // Occupy all machines.
  engine.submit(workload::make_bag_of_tasks(
      1, 4, 100.0, infra::ResourceVector{4.0, 4.0, 0.0}));
  sim.run_until(sim::kSecond);
  pool.set_target(1);
  // Machines still busy: powered stays 4 (draining), active shrinks.
  EXPECT_EQ(pool.active(), 1u);
  EXPECT_EQ(pool.powered(), 4u);
  // After tasks complete, drained machines power off.
  sim.run_until(200 * sim::kSecond);
  pool.reap_drained();
  EXPECT_EQ(pool.powered(), 1u);
}

TEST(ProvisioningTest, CostGrowsWithPoweredMachineHours) {
  auto dc = make_dc(4, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  ProvisioningConfig config;
  config.price_per_machine_hour = 1.0;
  ProvisionedPool pool(sim, dc, engine, config);
  pool.start_with(2);
  sim.schedule_at(sim::kHour, [] {});
  sim.run_until();
  EXPECT_NEAR(pool.cost(), 2.0, 0.01);  // 2 machines x 1 hour x $1
}

TEST(ProvisioningTest, TargetClampedToFloorAndMachineCount) {
  auto dc = make_dc(4, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  ProvisioningConfig config;
  config.min_machines = 2;
  ProvisionedPool pool(sim, dc, engine, config);
  pool.start_with(2);
  pool.set_target(0);
  EXPECT_EQ(pool.target(), 2u);
  pool.set_target(100);
  EXPECT_EQ(pool.target(), 4u);
}

// ---- Schopf stages as skeleton parameters ------------------------------------------------
// Each stage of a Schopf-style scheduling pipeline is a parameter of the one
// list-scheduling skeleton: task order is the comparator, the capability and
// availability filters are PlannedCapacity::fits, and speed scoring is
// Fit::kEarliestFinish. These run the skeleton policies the stock pipelines
// mirrored.

TEST(PipelineTest, StockPipelinesCompleteWork) {
  // FCFS first fit, SJF, FCFS on the earliest-finish machine, FCFS best fit
  // (consolidating).
  std::vector<std::unique_ptr<AllocationPolicy>> mirrors;
  mirrors.push_back(make_fcfs());
  mirrors.push_back(make_sjf());
  mirrors.push_back(make_fcfs(Fit::kEarliestFinish));
  mirrors.push_back(make_fcfs(Fit::kBest));
  for (auto& policy : mirrors) {
    auto dc = make_dc(3, 4.0);
    std::vector<workload::Job> jobs;
    jobs.push_back(workload::make_bag_of_tasks(1, 10, 15.0));
    const RunResult r = run_workload(dc, std::move(jobs), std::move(policy));
    EXPECT_EQ(r.jobs.size(), 1u);
  }
}

TEST(PipelineTest, FilterCapableDropsAcceleratorlessMachines) {
  infra::Datacenter dc("het", "eu");
  dc.add_machine("cpu", infra::ResourceVector{8, 32, 0}, 1.0, 0);
  dc.add_machine("gpu", infra::ResourceVector{8, 32, 2}, 1.0, 0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(
      1, 2, 10.0, infra::ResourceVector{2.0, 4.0, 1.0}));
  sim.run_until();
  ASSERT_TRUE(engine.all_done());
}

TEST(PipelineTest, SpeedScoringEquivalentToHeftChoice) {
  infra::Datacenter dc("het", "eu");
  dc.add_machine("slow", infra::ResourceVector{8, 32, 0}, 1.0, 0);
  dc.add_machine("fast", infra::ResourceVector{8, 32, 0}, 2.5, 0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs(Fit::kEarliestFinish));
  engine.submit(workload::make_bag_of_tasks(1, 4, 50.0));
  sim.run_until();
  // All tasks fit the fast machine: ~20s.
  EXPECT_LT(engine.completed()[0].response_seconds(), 25.0);
}

// ---- portfolio ------------------------------------------------------------------------------

TEST(PortfolioTest, SurrogateRanksOrderingsSanely) {
  // Machines idle; two tasks 100s and 10s, one core each, one machine with
  // one core: makespan identical, but with two sizes on one machine the
  // ordering does not change makespan; use heterogeneous cores to check
  // the estimator returns something positive and consistent.
  auto dc = make_dc(1, 1.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(1, 3, 30.0));
  sim.run_until(sim::kSecond);  // let tasks arrive & one start
  const SchedulerView view = engine.snapshot_view();
  const auto portfolio = default_portfolio();
  for (const auto& cand : portfolio) {
    const double est = estimate_queue_makespan(view, cand.order);
    EXPECT_GT(est, 0.0) << cand.policy_name;
  }
}

TEST(PortfolioTest, SwitchesPoliciesAndFinishesWorkload) {
  auto dc = make_dc(2, 4.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  sim::Rng rng(17);
  workload::TraceConfig config;
  config.job_count = 60;
  config.arrival_rate_per_hour = 1200.0;
  config.mean_task_seconds = 30.0;
  config.cv_task_seconds = 2.0;  // heavy mix: SJF should matter sometimes
  engine.submit_all(workload::generate_trace(config, rng));

  PortfolioScheduler portfolio(sim, dc, engine, default_portfolio(),
                               30 * sim::kSecond);
  portfolio.start();
  sim.run_until();
  EXPECT_TRUE(engine.all_done());
  std::size_t total_selections = 0;
  for (std::size_t s : portfolio.selections()) total_selections += s;
  EXPECT_GT(total_selections, 0u);
}

// ---- datacenter stack (Fig. 3) -----------------------------------------------------------------

TEST(StackTest, LayersAccountActivity) {
  auto dc = make_dc(8, 4.0);
  sim::Simulator sim;
  DatacenterStack::Config config;
  config.initial_machines = 4;
  DatacenterStack stack(sim, dc, make_fcfs(), config);
  stack.start_monitoring(10 * sim::kMinute);
  for (workload::JobId i = 1; i <= 5; ++i) {
    stack.submit(workload::make_bag_of_tasks(i, 4, 20.0));
  }
  stack.resize_pool(6);
  sim.run_until();

  const auto activity = stack.activity();
  ASSERT_EQ(activity.size(), 6u);  // 5 core layers + DevOps
  EXPECT_EQ(activity[0].layer, "Front-end");
  EXPECT_EQ(activity[0].operations, 5u);
  EXPECT_EQ(activity[1].operations, 5u);  // back-end completed all jobs
  EXPECT_EQ(activity[2].operations, 1u);  // one resize
  EXPECT_GT(activity[3].operations, 0u);  // monitoring samples
  EXPECT_EQ(activity[4].operations, 8u);  // machines
  EXPECT_GT(activity[5].operations, 0u);  // log lines
  EXPECT_TRUE(stack.backend().all_done());
}

TEST(StackTest, MonitoringSeriesRecorded) {
  auto dc = make_dc(4, 4.0);
  sim::Simulator sim;
  DatacenterStack stack(sim, dc, make_fcfs(), {});
  stack.start_monitoring(5 * sim::kMinute);
  stack.submit(workload::make_bag_of_tasks(1, 16, 60.0));
  sim.run_until();
  const auto* util = stack.operations().series("utilization");
  ASSERT_NE(util, nullptr);
  EXPECT_GT(util->samples().size(), 3u);
  ASSERT_NE(stack.operations().series("power_watts"), nullptr);
  EXPECT_EQ(stack.operations().series("nonexistent"), nullptr);
}

}  // namespace
}  // namespace mcs::sched
