// E10a — engineering microbenchmarks of the simulation kernel and RNG
// (google-benchmark). These quantify the substrate cost every experiment
// in this repository pays: event throughput, cancellation, and the
// distribution samplers used by the workload/failure models.
#include <functional>
#include <benchmark/benchmark.h>

#include "exp/sweep.hpp"
#include "metrics/elasticity.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sched/engine.hpp"
#include "sim/arrival.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace {

using namespace mcs;

void BM_EventThroughput(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(static_cast<sim::SimTime>(i), [&fired] { ++fired; });
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_EventThroughput)->Arg(1 << 12)->Arg(1 << 16);

void BM_EventThroughputReserved(benchmark::State& state) {
  // Same workload as BM_EventThroughput, but with the tail buffer and slot
  // table pre-sized via reserve_events: isolates the cost of growth from
  // the cost of the schedule/dispatch fast path itself.
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim.reserve_events(events);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(static_cast<sim::SimTime>(i), [&fired] { ++fired; });
    }
    sim.run_until();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_EventThroughputReserved)->Arg(1 << 12)->Arg(1 << 16);

void BM_EventThroughputUniform(benchmark::State& state) {
  // Wheel-band stress: events scheduled out of order, uniformly over a
  // ~4-second horizon. None of these can ride the monotone tail buffer —
  // before the timing wheel every one paid an O(log n) heap sift; now they
  // land in O(1) wheel buckets and cascade at most once per level.
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Rng rng(42);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.schedule_at(rng.uniform_int(0, 1 << 22), [&fired] { ++fired; });
    }
    sim.run_until();
    if (fired != events) state.SkipWithError("events lost");
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_EventThroughputUniform)->Arg(1 << 12)->Arg(1 << 16);

void BM_EventThroughputBimodal(benchmark::State& state) {
  // Near/far split: 90% of events in a ~1-second near band (low wheel
  // levels), 10% in a ~2-day far band 2^37..2^38 µs out (wheel level 6).
  // Exercises the two-band selection loop and cascades from the upper
  // wheel levels down to level 0.
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Rng rng(43);
    std::size_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      const sim::SimTime at =
          rng.chance(0.9)
              ? rng.uniform_int(0, 1 << 20)
              : rng.uniform_int(sim::SimTime{1} << 37, sim::SimTime{1} << 38);
      sim.schedule_at(at, [&fired] { ++fired; });
    }
    sim.run_until();
    if (fired != events) state.SkipWithError("events lost");
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_EventThroughputBimodal)->Arg(1 << 16);

void BM_CancelHeavyOutOfOrder(benchmark::State& state) {
  // BM_CancelHeavy's out-of-order twin: uniformly scattered events with
  // every other handle cancelled. Cancelled entries become wheel
  // tombstones that the selection loop must cascade to level 0 and
  // discard in (at, seq) order.
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Rng rng(44);
    std::vector<sim::EventHandle> handles;
    handles.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
      handles.push_back(
          sim.schedule_at(rng.uniform_int(0, 1 << 22), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      sim.cancel(handles[i]);
    }
    sim.run_until();
    if (sim.executed() != events / 2) state.SkipWithError("events lost");
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_CancelHeavyOutOfOrder)->Arg(1 << 13)->Arg(1 << 16);

void BM_SelfSchedulingChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::size_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 10000) sim.schedule_after(10, tick);
    };
    sim.schedule_at(0, tick);
    sim.run_until();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(10000 * state.iterations());
}
BENCHMARK(BM_SelfSchedulingChain);

void BM_CancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(8192);
    for (int i = 0; i < 8192; ++i) {
      handles.push_back(sim.schedule_at(i, [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) {
      sim.cancel(handles[i]);
    }
    sim.run_until();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(8192 * state.iterations());
}
BENCHMARK(BM_CancelHeavy);

void BM_EngineThroughput(benchmark::State& state) {
  // Jobs/second through the ExecutionEngine on a fixed, contended workload:
  // 512 bag-of-tasks jobs (~8 tasks each) arriving fast onto a 4x8-machine
  // floor, FCFS. This is the scheduling layer's steady-state
  // submit -> allocate -> run -> complete loop, the engine behind every
  // exp_* sweep replication.
  sim::Rng rng(7);
  workload::TraceConfig tc;
  tc.job_count = 512;
  tc.arrival_rate_per_hour = 40000.0;
  tc.mean_tasks_per_job = 8.0;
  tc.mean_task_seconds = 120.0;
  tc.cv_task_seconds = 1.5;
  const auto jobs = workload::generate_trace(tc, rng);
  for (auto _ : state) {
    infra::Datacenter dc("bm-dc", "eu");
    dc.add_uniform_racks(4, 8, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
    const auto r = sched::run_workload(dc, jobs, sched::make_fcfs());
    if (r.jobs.size() != jobs.size()) state.SkipWithError("jobs lost");
    benchmark::DoNotOptimize(r.mean_slowdown);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs.size()) *
                          state.iterations());
}
BENCHMARK(BM_EngineThroughput);

void BM_ScoringPolicies(benchmark::State& state) {
  // The scoring pass on a K=4 heterogeneous, gpu-sparse fleet: 3 racks of
  // cpu-only machines plus one gpu rack, 20% of tasks accelerated. Arg(0-3)
  // selects the NodeScorePolicy, so the per-policy cost of scoring in the
  // pick_machine loop (vs unscored first fit at Arg 0) reads directly off
  // the report. The scoring pass must stay allocation-free:
  // mcs_lint H2/H3 gate the loop, this benchmark gates the constant factor.
  const auto policy = static_cast<sched::NodeScorePolicy>(state.range(0));
  state.SetLabel(sched::to_string(policy));
  sim::Rng rng(7);
  workload::TraceConfig tc;
  tc.job_count = 512;
  tc.arrival_rate_per_hour = 40000.0;
  tc.mean_tasks_per_job = 8.0;
  tc.mean_task_seconds = 120.0;
  tc.cv_task_seconds = 1.5;
  tc.accelerated_fraction = 0.2;
  const auto jobs = workload::generate_trace(tc, rng);
  for (auto _ : state) {
    infra::Datacenter dc("bm-score", "eu");
    dc.add_uniform_racks(3, 8, infra::ResourceVector{8.0, 32.0, 0.0, 10.0},
                         1.0);
    dc.add_uniform_racks(1, 8, infra::ResourceVector{8.0, 32.0, 4.0, 10.0},
                         1.0);
    sched::EngineConfig cfg;
    cfg.placement.score = policy;
    cfg.placement.salt = 17;
    const auto r =
        sched::run_workload(dc, jobs, sched::make_fcfs(), std::move(cfg));
    if (r.jobs.size() != jobs.size()) state.SkipWithError("jobs lost");
    benchmark::DoNotOptimize(r.mean_slowdown);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs.size()) *
                          state.iterations());
}
BENCHMARK(BM_ScoringPolicies)->DenseRange(0, 3);

void BM_EngineThroughput_1M(benchmark::State& state) {
  // Million-entity ratchet (ROADMAP item 3): `machines` machines in
  // 1024-machine racks, `jobs` single-task jobs streamed in waves of
  // machines/64 every 120 virtual seconds, each task 30–90 s of work on a
  // quarter core — so completions scatter out of order across a ~60 s
  // window (timing-wheel band) while arrivals ride the monotone tail.
  // Placement takes hit the head-of-cluster argmax constantly, which is
  // exactly the case PlannedCapacity's incremental bound must absorb: the
  // pre-wheel kernel recomputed an O(machines) max per take, making this
  // benchmark infeasible at the full 1M/10M configuration.
  const auto machines = static_cast<std::size_t>(state.range(0));
  const auto total_jobs = static_cast<std::size_t>(state.range(1));
  const std::size_t wave = std::max<std::size_t>(machines / 64, 1024);
  for (auto _ : state) {
    infra::Datacenter dc("bm-1m", "eu");
    constexpr std::size_t kPerRack = 1024;
    dc.add_uniform_racks((machines + kPerRack - 1) / kPerRack, kPerRack,
                         infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
    sim::Simulator sim;
    sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
    sim.reserve_events(wave * 4);
    sim::Rng rng(7);
    std::size_t submitted = 0;
    workload::JobId next_id = 1;
    std::function<void()> pump = [&] {
      const std::size_t n = std::min(wave, total_jobs - submitted);
      for (std::size_t i = 0; i < n; ++i) {
        workload::Job j;
        j.id = next_id++;
        j.user = "u";
        j.submit_time = sim.now();
        workload::Task t;
        t.work_seconds = rng.uniform(30.0, 90.0);
        t.demand = infra::ResourceVector{0.25, 1.0, 0.0};
        j.tasks.push_back(std::move(t));
        engine.submit(std::move(j));
      }
      submitted += n;
      if (submitted < total_jobs) {
        sim.schedule_after(120 * sim::kSecond, pump);
      }
    };
    sim.schedule_at(0, pump);
    sim.run_until();
    if (engine.jobs_completed() != total_jobs) {
      state.SkipWithError("jobs lost");
    }
    benchmark::DoNotOptimize(engine.jobs_completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(total_jobs) *
                          state.iterations());
}
BENCHMARK(BM_EngineThroughput_1M)
    ->ArgNames({"machines", "jobs"})
    ->Args({1 << 14, 200000})
    ->Args({1 << 20, 10000000})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_EngineThroughputTraced(benchmark::State& state) {
  // BM_EngineThroughput with the observability layer switched ON: a
  // 64Ki-event Tracer attached via set_tracer, so every job arrival /
  // task start / span lands in the ring. The delta vs BM_EngineThroughput
  // is the enabled-tracing overhead budget (DESIGN.md §11); with no
  // tracer attached the cost is one null check per emission site.
  sim::Rng rng(7);
  workload::TraceConfig tc;
  tc.job_count = 512;
  tc.arrival_rate_per_hour = 40000.0;
  tc.mean_tasks_per_job = 8.0;
  tc.mean_task_seconds = 120.0;
  tc.cv_task_seconds = 1.5;
  const auto jobs = workload::generate_trace(tc, rng);
  for (auto _ : state) {
    infra::Datacenter dc("bm-dc", "eu");
    dc.add_uniform_racks(4, 8, infra::ResourceVector{8.0, 32.0, 0.0}, 1.0);
    sim::Simulator sim;
    sched::ExecutionEngine engine(sim, dc, sched::make_fcfs());
    obs::Tracer tracer(1 << 16);
    engine.set_tracer(&tracer);
    engine.submit_all(jobs);
    sim.run_until();
    if (engine.jobs_submitted() != jobs.size()) {
      state.SkipWithError("jobs lost");
    }
    benchmark::DoNotOptimize(tracer.total());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs.size()) *
                          state.iterations());
}
BENCHMARK(BM_EngineThroughputTraced);

void BM_SweepScaling(benchmark::State& state) {
  // Wall-clock scaling of exp::run_sweep: 16 independent scheduling
  // replications fanned over a pool of `threads` workers. UseRealTime
  // because the work happens on pool threads, not the timing thread.
  const auto threads = static_cast<std::size_t>(state.range(0));
  parallel::ThreadPool pool(threads);
  workload::TraceConfig tc;
  tc.job_count = 96;
  tc.arrival_rate_per_hour = 2000.0;
  tc.mean_tasks_per_job = 6.0;
  tc.mean_task_seconds = 60.0;
  tc.cv_task_seconds = 1.0;
  for (auto _ : state) {
    exp::SweepOptions opt;
    opt.reps = 16;
    opt.base_seed = 11;
    opt.pool = &pool;
    const auto results = exp::run_sweep<double>(
        1, opt, [&](const exp::SweepPoint& p) {
          sim::Rng rng(p.seed);
          const auto jobs = workload::generate_trace(tc, rng);
          infra::Datacenter dc("bm-dc", "eu");
          dc.add_uniform_racks(2, 8, infra::ResourceVector{8.0, 32.0, 0.0},
                               1.0);
          return sched::run_workload(dc, jobs, sched::make_fcfs())
              .mean_slowdown;
        });
    if (results.size() != 16) state.SkipWithError("reps lost");
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(16 * state.iterations());
}
BENCHMARK(BM_SweepScaling)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_RngExponential(benchmark::State& state) {
  sim::Rng rng(1);
  double sink = 0.0;
  for (auto _ : state) sink += rng.exponential(1.0);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngExponential);

void BM_RngZipf(benchmark::State& state) {
  sim::Rng rng(1);
  std::size_t sink = 0;
  for (auto _ : state) sink += rng.zipf(10000, 1.1);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngZipf);

void BM_MmppArrivals(benchmark::State& state) {
  sim::Rng rng(1);
  sim::MmppProcess mmpp(1.0, 20.0, 100.0, 10.0);
  sim::SimTime sink = 0;
  for (auto _ : state) sink += mmpp.next_gap(rng);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_MmppArrivals);

void BM_ElasticityReport(benchmark::State& state) {
  metrics::StepSeries demand, supply;
  sim::Rng rng(1);
  for (sim::SimTime t = 0; t < sim::kDay; t += sim::kMinute) {
    demand.append(t, rng.uniform(0.0, 32.0));
    supply.append(t, rng.uniform(0.0, 32.0));
  }
  for (auto _ : state) {
    auto r = metrics::elasticity_report(demand, supply, 0, sim::kDay);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ElasticityReport);

}  // namespace

BENCHMARK_MAIN();
