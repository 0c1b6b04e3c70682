// Engine edge paths under the slot-table layout: retry after machine
// failure with slot reuse, drain-while-running, scavenging penalty
// accounting, abandoned-job accounting, and per-user usage under job
// churn. These pin the behaviors that the dense storage (core::SlotPool
// jobs, the ReadyQueue of ready tasks with its ordered index and floor, the
// RunningSet of running tasks with its per-machine lists,
// generation-guarded completions, interned users) must preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/slot_pool.hpp"
#include "sched/engine.hpp"
#include "sched/ready_queue.hpp"
#include "sched/running_set.hpp"
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

TEST(EngineSlotsTest, RetryAfterFailureCompletesWithSlotReuse) {
  // One 4-core machine, one 4-task job. Fail the machine mid-run: the
  // running tasks are killed, re-queued, and must finish after repair.
  // The kill recycles running-table slots; the generation guard must keep
  // the cancelled completions from firing into the reused slots.
  auto dc = make_dc(1, 4.0, 16.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(1, 4, 100.0));

  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.schedule_at(50 * sim::kSecond, [&] {
    dc.machine(0).repair();
    engine.kick();
  });
  sim.run_until();

  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 1u);
  const JobStats& s = engine.completed()[0];
  EXPECT_FALSE(s.abandoned);
  EXPECT_EQ(s.task_failures, 4u);
  EXPECT_EQ(engine.tasks_killed(), 4u);
  // Restarted from scratch at t=50: finish at 150s.
  EXPECT_NEAR(s.response_seconds(), 150.0, 0.5);
}

TEST(EngineSlotsTest, SlotReuseAcrossJobChurnKeepsStatsIntact) {
  // 64 jobs arriving in a staggered stream through a small floor: far
  // more jobs than are ever live at once, so job slots recycle many
  // times. Every job must complete exactly once with sane stats.
  auto dc = make_dc(2, 4.0, 16.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  for (workload::JobId id = 1; id <= 64; ++id) {
    workload::Job j = workload::make_bag_of_tasks(id, 2, 30.0);
    j.submit_time = static_cast<sim::SimTime>(id - 1) * 10 * sim::kSecond;
    engine.submit(std::move(j));
  }
  sim.run_until();

  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 64u);
  for (const JobStats& s : engine.completed()) {
    EXPECT_FALSE(s.abandoned);
    EXPECT_GE(s.slowdown(), 1.0 - 1e-9);
    EXPECT_GE(s.response_seconds(), 30.0 - 1e-6);
  }
}

TEST(EngineSlotsTest, DrainWhileRunningFinishesButBlocksPlacement) {
  // Job A starts on the only machine; the machine is drained while A
  // runs. A must run to completion, but job B (ready during the drain)
  // must not be placed until undrain.
  auto dc = make_dc(1, 4.0, 16.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  engine.submit(workload::make_bag_of_tasks(
      1, 1, 100.0, infra::ResourceVector{4.0, 1.0, 0.0}));
  workload::Job b = workload::make_bag_of_tasks(2, 1, 50.0);
  b.submit_time = 10 * sim::kSecond;
  engine.submit(std::move(b));

  sim.schedule_at(5 * sim::kSecond, [&] { engine.drain(0); });
  std::size_t ready_after_a = 999;
  sim.schedule_at(120 * sim::kSecond, [&] {
    // A (0..100s) is done; B must still be parked, not placed.
    ready_after_a = engine.ready_count();
    engine.undrain(0);
  });
  sim.run_until();

  EXPECT_EQ(ready_after_a, 1u);
  ASSERT_TRUE(engine.all_done());
  ASSERT_EQ(engine.completed().size(), 2u);
  for (const JobStats& s : engine.completed()) {
    if (s.id == 1) {
      EXPECT_NEAR(s.response_seconds(), 100.0, 0.5);
    } else {
      // B: submitted at 10s, placed at undrain (120s), runs 50s, so it
      // finishes at 170s — a 160s response.
      EXPECT_NEAR(s.response_seconds(), 160.0, 0.5);
    }
  }
}

TEST(EngineSlotsTest, ScavengingPenaltyAndUsageAccounting) {
  // 12 GiB demanded on an 8 GiB machine: borrowed fraction 1/3, runtime
  // multiplier 1 + 0.6/3 = 1.2 -> 120 s. Usage accounting must charge
  // the *actual* occupancy (cores x 120 s), not the nominal work.
  auto dc = make_dc(1, 4.0, 8.0);
  sim::Simulator sim;
  EngineConfig config;
  config.scavenging.enabled = true;
  config.scavenging.max_borrow_fraction = 0.5;
  config.scavenging.penalty = 0.6;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  workload::Job j = workload::make_bag_of_tasks(
      1, 1, 100.0, infra::ResourceVector{2.0, 12.0, 0.0});
  j.user = "tenant-a";
  engine.submit(std::move(j));
  sim.run_until();

  ASSERT_TRUE(engine.all_done());
  EXPECT_EQ(engine.tasks_scavenged(), 1u);
  EXPECT_NEAR(engine.completed()[0].response_seconds(), 120.0, 0.5);
  EXPECT_NEAR(engine.busy_core_seconds(), 2.0 * 120.0, 1.0);
  const auto usage = engine.user_usage();
  ASSERT_EQ(usage.count("tenant-a"), 1u);
  EXPECT_NEAR(usage.at("tenant-a"), 2.0 * 120.0, 1.0);
}

TEST(EngineSlotsTest, MaxRetriesExceededAbandonsJobAndFreesFloor) {
  // max_retries = 0: the first kill abandons the job. The floor must be
  // clean afterwards (no leaked running slots, all_done true), and the
  // abandoned job must appear in completed() with its failure count.
  auto dc = make_dc(2, 4.0, 16.0);
  sim::Simulator sim;
  EngineConfig config;
  config.max_retries = 0;
  ExecutionEngine engine(sim, dc, make_fcfs(), config);
  engine.submit(workload::make_bag_of_tasks(1, 2, 500.0));

  sim.schedule_at(10 * sim::kSecond, [&] {
    dc.machine(0).fail();
    engine.on_machine_failed(0);
  });
  sim.run_until();

  ASSERT_TRUE(engine.all_done());
  EXPECT_EQ(engine.ready_count(), 0u);
  EXPECT_EQ(engine.running_count(), 0u);
  ASSERT_EQ(engine.completed().size(), 1u);
  const JobStats& s = engine.completed()[0];
  EXPECT_TRUE(s.abandoned);
  EXPECT_GE(s.task_failures, 1u);
  // The surviving machine must be fully released despite the abandon.
  EXPECT_NEAR(dc.machine(1).used().cpu(), 0.0, 1e-9);
}

TEST(EngineSlotsTest, UserInterningSurvivesChurn) {
  // Two users alternating across recycled job slots: per-user usage must
  // land on the right interned id throughout.
  auto dc = make_dc(1, 4.0, 16.0);
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, make_fcfs());
  for (workload::JobId id = 1; id <= 8; ++id) {
    workload::Job j = workload::make_bag_of_tasks(id, 1, 10.0);
    j.user = (id % 2 == 0) ? "even" : "odd";
    j.submit_time = static_cast<sim::SimTime>(id - 1) * 20 * sim::kSecond;
    engine.submit(std::move(j));
  }
  sim.run_until();

  ASSERT_TRUE(engine.all_done());
  const auto usage = engine.user_usage();
  ASSERT_EQ(usage.size(), 2u);
  // 4 jobs each, 1 core x 10 s per job.
  EXPECT_NEAR(usage.at("even"), 40.0, 0.5);
  EXPECT_NEAR(usage.at("odd"), 40.0, 0.5);
  EXPECT_EQ(engine.user_usage_by_id().size(), 2u);
}

// ---- the running set's per-machine lists ------------------------------------

TEST(RunningSetTest, RandomChurnMatchesNaiveScan) {
  // Random adds and removes, in phases that fill and drain the set so keys
  // are recycled and machines fall idle. After every step each machine's
  // list walk, each (job, machine) count and idle() are diffed against a
  // naive scan of the key-order walk, and every key handed out must be the
  // one a plain core::SlotPool hands out.
  constexpr infra::MachineId kMachines = 6;
  constexpr std::uint32_t kJobs = 4;
  sim::Rng rng(19);
  RunningSet running;
  core::SlotPool<char> keys;
  std::vector<std::uint32_t> live;
  std::size_t recycled = 0;
  std::size_t idle_seen = 0;
  for (int step = 0; step < 3000; ++step) {
    const double add_chance = (step / 300) % 2 == 0 ? 0.7 : 0.3;
    if (live.empty() || rng.chance(add_chance)) {
      RunningTask task;
      task.job_slot = static_cast<std::uint32_t>(rng.uniform_int(0, kJobs - 1));
      task.machine =
          static_cast<infra::MachineId>(rng.uniform_int(0, kMachines - 1));
      const std::uint32_t size_before = running.size();
      const std::uint32_t key = running.add(task);
      ASSERT_EQ(key, keys.acquire()) << "step " << step;
      if (running.size() == size_before) ++recycled;
      live.push_back(key);
    } else {
      const auto i = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live.size()) - 1));
      running.remove(live[i]);
      keys.release(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(running.live_count(), live.size());
    // One machine past the fleet never had a list.
    for (infra::MachineId m = 0; m <= kMachines; ++m) {
      std::vector<std::uint32_t> want;
      running.for_each([&](std::uint32_t key, const RunningTask& t) {
        if (t.machine == m) want.push_back(key);
      });
      std::vector<std::uint32_t> got;
      running.for_each_on(m, [&](std::uint32_t key, const RunningTask&) {
        if (got.size() > live.size()) throw std::runtime_error("list loops");
        got.push_back(key);
      });
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, want) << "machine " << m << " step " << step;
      ASSERT_EQ(running.idle(m), want.empty()) << "machine " << m;
      if (want.empty()) ++idle_seen;
      for (std::uint32_t job = 0; job < kJobs; ++job) {
        const auto naive = static_cast<std::uint32_t>(
            std::count_if(want.begin(), want.end(), [&](std::uint32_t key) {
              return running[key].job_slot == job;
            }));
        ASSERT_EQ(running.count(job, m), naive)
            << "job " << job << " machine " << m << " step " << step;
      }
    }
  }
  // The phases reach both recycling and idle machines often.
  EXPECT_GT(recycled, 500u);
  EXPECT_GT(idle_seen, 3000u);
}

// ---- the ready queue's enqueue order, index and floor -------------------------

TEST(ReadyQueueTest, RandomChurnMatchesNaiveQueue) {
  // Random pushes, erases (often the newest, as the engine starts tasks)
  // and erase-by-job, in phases that fill and drain the queue so handles
  // are recycled. Five queues see the same churn, each keeping its index
  // live in one of the five queue orders, and every 400 steps each switches
  // to the next order. After every step each queue's enqueue order,
  // ordered() and floor are diffed against a plain vector kept in enqueue
  // order, that vector stable-sorted by the order, and its naive minimum.
  // Keys and demands come from small sets, so ties are everywhere.
  const QueueOrder orders[] = {order_fcfs, order_sjf, order_ljf, order_edf,
                               order_rank};
  constexpr std::size_t kOrders = 5;
  sim::Rng rng(23);
  std::vector<ReadyQueue> queues(kOrders);
  struct Entry {
    ReadyQueue::Handle handle;
    ReadyTask task;
  };
  std::vector<Entry> naive;  // enqueue order
  const auto quarters = [&rng](std::int64_t most) {
    return 0.25 * static_cast<double>(rng.uniform_int(0, most));
  };
  ReadyQueue::Handle fresh = 0;  // one past the largest handle handed out
  std::size_t recycled = 0;
  std::size_t by_job = 0;
  for (int step = 0; step < 4000; ++step) {
    const double add_chance = (step / 300) % 2 == 0 ? 0.7 : 0.3;
    if (naive.empty() || rng.chance(add_chance)) {
      ReadyTask t;
      t.job = static_cast<workload::JobId>(rng.uniform_int(1, 6));
      t.job_slot = static_cast<std::uint32_t>(t.job);
      t.task_index = static_cast<std::size_t>(rng.uniform_int(0, 3));
      t.job_submit = static_cast<sim::SimTime>(t.job % 3) * sim::kSecond;
      t.work_seconds = 0.25 + quarters(7);
      t.rank = static_cast<double>(rng.uniform_int(0, 3));
      t.deadline = rng.chance(0.3) ? sim::kTimeInfinity
                                   : rng.uniform_int(1, 3) * sim::kSecond;
      t.demand = infra::ResourceVector{
          quarters(8), quarters(8), static_cast<double>(rng.uniform_int(0, 1))};
      const ReadyQueue::Handle h = queues[0].push(t);
      for (std::size_t k = 1; k < kOrders; ++k) {
        ASSERT_EQ(queues[k].push(t), h) << "step " << step;
      }
      if (h < fresh) {
        ++recycled;
      } else {
        fresh = h + 1;
      }
      naive.push_back({h, t});
    } else if (rng.chance(0.1)) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(naive.size()) - 1));
      const std::uint32_t job_slot = naive[pick].task.job_slot;
      for (ReadyQueue& q : queues) q.erase_job(job_slot);
      naive.erase(std::remove_if(naive.begin(), naive.end(),
                                 [&](const Entry& e) {
                                   return e.task.job_slot == job_slot;
                                 }),
                  naive.end());
      ++by_job;
    } else {
      const auto pick =
          rng.chance(0.3)
              ? naive.size() - 1
              : static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(naive.size()) - 1));
      for (ReadyQueue& q : queues) q.erase(naive[pick].handle);
      naive.erase(naive.begin() + static_cast<std::ptrdiff_t>(pick));
    }

    constexpr double kInf = std::numeric_limits<double>::infinity();
    infra::ResourceVector floor{kInf, kInf, kInf, kInf};
    std::vector<ReadyQueue::Handle> fifo;
    for (const Entry& e : naive) {
      fifo.push_back(e.handle);
      for (std::size_t d = 0; d < core::kResourceDims; ++d) {
        floor[d] = std::min(floor[d], e.task.demand[d]);
      }
    }
    for (std::size_t k = 0; k < kOrders; ++k) {
      const ReadyQueue& q = queues[k];
      ASSERT_EQ(q.size(), naive.size()) << "step " << step;
      ASSERT_EQ(q.handles(), fifo) << "step " << step;
      for (const Entry& e : naive) {
        ASSERT_EQ(q[e.handle].job, e.task.job) << "step " << step;
        ASSERT_EQ(q[e.handle].task_index, e.task.task_index);
      }
      const QueueOrder order = orders[(k + step / 400) % kOrders];
      std::vector<Entry> sorted = naive;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [order](const Entry& a, const Entry& b) {
                         return order(a.task, b.task);
                       });
      std::vector<ReadyQueue::Handle> want;
      for (const Entry& e : sorted) want.push_back(e.handle);
      ASSERT_EQ(q.ordered(order), want)
          << "order " << (k + step / 400) % kOrders << " step " << step;
      ASSERT_EQ(q.floor(), floor) << "step " << step;
    }
  }
  // The phases reach recycling and whole-job erasure often.
  EXPECT_GT(recycled, 500u);
  EXPECT_GT(by_job, 100u);
}

}  // namespace
}  // namespace mcs::sched
