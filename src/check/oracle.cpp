#include "check/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/resources.hpp"

namespace mcs::check {

namespace {

/// Floating-point slack for the I4 capacity comparisons.
constexpr double kCapacityEpsilon = 1e-6;

/// True when the comma-separated zone list names `zone`. Mirrors the
/// parsing in LabelFilterCache::mask_for but stays independent of it: the
/// oracle re-derives placement legality from the job's declared zones.
bool zone_list_contains(const std::string& zones, const std::string& zone) {
  std::size_t start = 0;
  while (start <= zones.size()) {
    std::size_t end = zones.find(',', start);
    if (end == std::string::npos) end = zones.size();
    if (zones.compare(start, end - start, zone) == 0) return true;
    start = end + 1;
  }
  return false;
}

}  // namespace

InvariantChecker::InvariantChecker(sim::Simulator& sim,
                                   const infra::Datacenter& dc,
                                   Options options)
    : sim_(sim), dc_(dc), options_(options) {}

InvariantChecker::~InvariantChecker() { detach(); }

void InvariantChecker::attach(sched::ExecutionEngine& engine) {
  engine_ = &engine;
  engine.set_observer(this);
  sim_.set_hook(this);
  last_event_at_ = sim_.now();
  shadow_drain_.assign(dc_.machine_count(), 0);
  for (infra::MachineId id = 0; id < dc_.machine_count(); ++id) {
    shadow_drain_[id] = engine.is_draining(id) ? 1 : 0;
  }
}

void InvariantChecker::detach() {
  if (engine_ != nullptr) {
    if (engine_->observer() == this) engine_->set_observer(nullptr);
    engine_ = nullptr;
  }
  if (sim_.hook() == this) sim_.set_hook(nullptr);
}

void InvariantChecker::fail(const char* invariant, const char* where,
                            const std::string& detail) const {
  std::ostringstream msg;
  msg << "ORACLE VIOLATION [" << invariant << "] after '" << where
      << "' at t=" << sim_.now() << "us: " << detail;
  throw OracleViolation(msg.str());
}

void InvariantChecker::on_event(sim::SimTime at, std::uint64_t executed) {
  // I7: the kernel's clock never runs backwards.
  if (at < last_event_at_) {
    std::ostringstream msg;
    msg << "ORACLE VIOLATION [I7 monotonicity] event " << executed
        << " executes at t=" << at << "us after t=" << last_event_at_
        << "us";
    throw OracleViolation(msg.str());
  }
  last_event_at_ = at;
}

void InvariantChecker::on_event_end(sim::SimTime, std::uint64_t) {
  if (engine_ != nullptr) verify(*engine_, "event-end");
}

void InvariantChecker::on_transition(const sched::ExecutionEngine& engine,
                                     sched::EngineTransition t,
                                     infra::MachineId machine) {
  ++transitions_;
  const char* where = sched::to_string(t);
  switch (t) {
    case sched::EngineTransition::kDrained:
      if (machine >= shadow_drain_.size()) {
        // mcs-lint: allow(H3) — grows once per machine added after
        // attach(); the oracle is a test harness, not a production path.
        shadow_drain_.resize(machine + 1, 0);
      }
      shadow_drain_[machine] = 1;
      break;
    case sched::EngineTransition::kUndrained:
      if (machine < shadow_drain_.size()) shadow_drain_[machine] = 0;
      break;
    case sched::EngineTransition::kTaskStarted:
      // I5: new placements never target draining or unusable machines.
      // Valid even mid-event: the *target* of a fresh placement must be
      // healthy regardless of what else the event is still unwinding.
      if (engine.is_draining(machine)) {
        fail("I5 placement", where,
             "task started on draining machine " + std::to_string(machine));
      }
      if (!dc_.machine(machine).usable()) {
        fail("I5 placement", where,
             "task started on unusable machine " + std::to_string(machine));
      }
      break;
    default:
      break;
  }
}

void InvariantChecker::verify(const sched::ExecutionEngine& e,
                              const char* where) {
  ++checks_;

  // I1: job conservation. completed_ holds finished *and* abandoned jobs.
  if (e.jobs_submitted() != e.completed_.size() + e.jobs_.live_count()) {
    fail("I1 conservation", where,
         "submitted=" + std::to_string(e.jobs_submitted()) +
             " != completed=" + std::to_string(e.completed_.size()) +
             " + live=" + std::to_string(e.jobs_.live_count()));
  }

  // Flatten per-job task-state marks: offsets over all slots (dead slots
  // get zero width), one byte per task. Bit 0 = ready, bit 1 = running.
  const std::uint32_t job_slots = e.jobs_.size();
  task_offsets_.assign(job_slots + 1, 0);
  for (std::uint32_t j = 0; j < job_slots; ++j) {
    const std::uint32_t width =
        e.jobs_.live(j)
            ? static_cast<std::uint32_t>(e.jobs_[j].job.tasks.size())
            : 0;
    task_offsets_[j + 1] = task_offsets_[j] + width;
  }
  task_marks_.assign(task_offsets_[job_slots], 0);

  // I1/I3 per live job: remaining and dependency recounts.
  e.jobs_.for_each([&](std::uint32_t, const auto& jr) {
    const std::size_t n = jr.job.tasks.size();
    std::size_t done_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (jr.done[i] != 0) ++done_count;
    }
    if (jr.remaining != n - done_count) {
      fail("I1 conservation", where,
           "job " + std::to_string(jr.job.id) + ": remaining=" +
               std::to_string(jr.remaining) + " but tasks-done=" +
               std::to_string(n - done_count));
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (jr.done[i] != 0) continue;
      std::uint32_t undone_deps = 0;
      for (std::size_t d : jr.job.tasks[i].deps) {
        if (jr.done[d] == 0) ++undone_deps;
      }
      if (jr.missing_deps[i] != undone_deps) {
        fail("I3 dependencies", where,
             "job " + std::to_string(jr.job.id) + " task " +
                 std::to_string(i) + ": missing_deps=" +
                 std::to_string(jr.missing_deps[i]) + " but recount=" +
                 std::to_string(undone_deps));
      }
    }
  });

  // I2: ready entries reference live jobs, runnable tasks, and no task is
  // ready twice.
  const sched::ReadyQueue& ready = e.ready_;
  for (const sched::ReadyQueue::Handle h : ready.handles()) {
    const sched::ReadyTask& rt = ready[h];
    if (rt.job_slot >= job_slots || !e.jobs_.live(rt.job_slot)) {
      fail("I2 task-partition", where,
           "ready entry references dead job slot " +
               std::to_string(rt.job_slot));
    }
    const auto& jr = e.jobs_[rt.job_slot];
    if (rt.task_index >= jr.job.tasks.size()) {
      fail("I2 task-partition", where, "ready task index out of range");
    }
    if (jr.done[rt.task_index] != 0) {
      fail("I2 task-partition", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) + " is ready but done");
    }
    if (jr.missing_deps[rt.task_index] != 0) {
      fail("I2 task-partition", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) +
               " is ready with unmet dependencies");
    }
    std::uint8_t& mark = task_marks_[task_offsets_[rt.job_slot] +
                                     static_cast<std::uint32_t>(rt.task_index)];
    if ((mark & 1u) != 0) {
      fail("I2 task-partition", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) + " is ready twice");
    }
    mark |= 1u;
  }

  verify_ready_index(ready, where);

  // I2/I5: running slots reference live jobs and usable machines; no task
  // runs twice or is both ready and running.
  held_dims_.assign(dc_.machine_count() * core::kResourceDims, 0.0);
  held_count_.assign(dc_.machine_count(), 0);
  e.running_.for_each([&](std::uint32_t, const auto& rt) {
    if (rt.job_slot >= job_slots || !e.jobs_.live(rt.job_slot)) {
      fail("I2 task-partition", where,
           "running slot references dead job slot " +
               std::to_string(rt.job_slot));
    }
    const auto& jr = e.jobs_[rt.job_slot];
    if (rt.task_index >= jr.job.tasks.size()) {
      fail("I2 task-partition", where, "running task index out of range");
    }
    if (jr.done[rt.task_index] != 0) {
      fail("I2 task-partition", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) + " is running but done");
    }
    if (rt.machine >= dc_.machine_count()) {
      fail("I5 placement", where, "running task on unknown machine");
    }
    if (!dc_.machine(rt.machine).usable()) {
      fail("I5 placement", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) + " runs on unusable machine " +
               std::to_string(rt.machine));
    }
    if (rt.expected_end < rt.start) {
      fail("I7 monotonicity", where, "running task ends before it starts");
    }
    std::uint8_t& mark = task_marks_[task_offsets_[rt.job_slot] +
                                     rt.task_index];
    if ((mark & 2u) != 0) {
      fail("I2 task-partition", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) + " is running twice");
    }
    if ((mark & 1u) != 0) {
      fail("I2 task-partition", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) + " is both ready and running");
    }
    mark |= 2u;
    // I5: zone-constrained jobs only ever run inside their zone set, and
    // no machine exceeds the job's anti-affinity spread limit. Recomputed
    // from the job's declared placement, not the engine's cached masks.
    if (!jr.job.placement.zones.empty() &&
        !zone_list_contains(jr.job.placement.zones,
                            dc_.zone_of(rt.machine))) {
      fail("I5 placement", where,
           "job " + std::to_string(jr.job.id) + " task " +
               std::to_string(rt.task_index) + " runs on machine " +
               std::to_string(rt.machine) + " in zone '" +
               dc_.zone_of(rt.machine) + "' outside its allowed zones '" +
               jr.job.placement.zones + "'");
    }
    if (jr.job.placement.spread_limit > 0) {
      std::uint32_t same_machine = 0;
      e.running_.for_each([&](std::uint32_t, const auto& other) {
        if (other.job_slot == rt.job_slot && other.machine == rt.machine) {
          ++same_machine;
        }
      });
      if (same_machine > jr.job.placement.spread_limit) {
        fail("I5 placement", where,
             "job " + std::to_string(jr.job.id) + " runs " +
                 std::to_string(same_machine) + " tasks on machine " +
                 std::to_string(rt.machine) + " but its spread limit is " +
                 std::to_string(jr.job.placement.spread_limit));
      }
    }
    for (std::size_t d = 0; d < core::kResourceDims; ++d) {
      held_dims_[rt.machine * core::kResourceDims + d] += rt.held[d];
    }
    ++held_count_[rt.machine];
  });

  // I4 running index: walking every machine's list reaches each live task
  // once, on its own machine, and nothing else. A stale or looping list
  // fails on the first key it repeats or does not own.
  listed_marks_.assign(e.running_.size(), 0);
  std::size_t indexed = 0;
  for (infra::MachineId id = 0; id < e.running_.machine_bound(); ++id) {
    e.running_.for_each_on(id, [&](std::uint32_t key,
                                   const sched::RunningTask& rt) {
      const char* wrong = !e.running_.live(key) ? "a released key"
                          : rt.machine != id ? "a task of another machine"
                          : listed_marks_[key] != 0 ? "a key twice"
                                                    : nullptr;
      if (wrong != nullptr) {
        fail("I4 running-index", where,
             "machine " + std::to_string(id) + "'s list holds " + wrong +
                 " (key " + std::to_string(key) + ")");
      }
      listed_marks_[key] = 1;
      ++indexed;
    });
  }
  if (indexed != e.running_.live_count()) {
    fail("I4 running-index", where,
         std::to_string(e.running_.live_count()) + " tasks run but the " +
             "machine lists hold " + std::to_string(indexed));
  }

  // I4: per-machine capacity sanity (and exclusive-allocation accounting),
  // checked in every resource dimension of the vector. Machines added after
  // attach() start undrained in the shadow, as they do in the engine.
  if (shadow_drain_.size() < dc_.machine_count()) {
    // mcs-lint: allow(H3) — grows once per machine added after attach().
    shadow_drain_.resize(dc_.machine_count(), 0);
  }
  // I4 live view: diffed against a fresh build only when the engine would
  // not rebuild at its next round; `listed` walks planned.machines(). A row
  // the planned capacity holds always fits its own free capacity.
  const bool live_view = e.view_current();
  const sched::PlannedCapacity& planned = e.planned_;
  const std::vector<const infra::Machine*>& machines = planned.machines();
  const auto holds = [&planned](infra::MachineId id) {
    return id < planned.id_bound() && planned.fits(id, planned.free_on(id));
  };
  std::size_t listed = 0;
  for (infra::MachineId id = 0; id < dc_.machine_count(); ++id) {
    const infra::Machine& m = dc_.machine(id);
    if (live_view) {
      if (m.usable() && !e.is_draining(id)) {
        if (listed >= machines.size() || machines[listed] != &m) {
          fail("I4 live-view", where,
               "usable machine " + std::to_string(id) +
                   " is missing from the engine's machine list");
        }
        ++listed;
        if (!holds(id) || !(planned.free_on(id) == m.available()) ||
            !(planned.capacity_on(id) == m.capacity()) ||
            planned.speed(id) != m.speed_factor()) {
          fail("I4 live-view", where,
               "machine " + std::to_string(id) +
                   ": planned row differs from its live state");
        }
      } else if (holds(id)) {
        fail("I4 live-view", where,
             "machine " + std::to_string(id) +
                 " is unusable or draining but has a planned row");
      }
    }
    const infra::ResourceVector& used = m.used();
    const infra::ResourceVector& cap = m.capacity();
    for (std::size_t d = 0; d < core::kResourceDims; ++d) {
      const char* dim = core::to_string(static_cast<core::ResourceDim>(d));
      if (used[d] < -kCapacityEpsilon) {
        fail("I4 capacity", where,
             "machine " + std::to_string(id) + " has negative used " + dim);
      }
      if (used[d] > cap[d] + kCapacityEpsilon) {
        fail("I4 capacity", where,
             "machine " + std::to_string(id) + " used " + dim +
                 " exceeds capacity (" + std::to_string(used[d]) + " > " +
                 std::to_string(cap[d]) + ")");
      }
    }
    if (options_.exclusive_allocation && m.usable()) {
      for (std::size_t d = 0; d < core::kResourceDims; ++d) {
        const double held = held_dims_[id * core::kResourceDims + d];
        if (std::abs(used[d] - held) > kCapacityEpsilon) {
          fail("I4 capacity", where,
               "machine " + std::to_string(id) + ": used " +
                   core::to_string(static_cast<core::ResourceDim>(d)) +
                   " does not match the engine's held resources (" +
                   std::to_string(used[d]) + " vs " + std::to_string(held) +
                   ")");
        }
      }
      if (m.live_allocations() != held_count_[id]) {
        fail("I4 capacity", where,
             "machine " + std::to_string(id) + ": " +
                 std::to_string(m.live_allocations()) +
                 " live allocations but the engine holds " +
                 std::to_string(held_count_[id]) + " running tasks");
      }
      // Exactly zero, not within kCapacityEpsilon, in every dimension:
      // fractional demands must not leave floating-point residue behind
      // once a machine is idle — 1e-16 leftover cores starve
      // exactly-full-machine demands forever (the full_machine_fp_residue
      // repro).
      if (held_count_[id] == 0) {
        for (std::size_t d = 0; d < core::kResourceDims; ++d) {
          if (used[d] != 0.0) {
            fail("I4 capacity", where,
                 "machine " + std::to_string(id) +
                     " is idle but used is not exactly zero (" +
                     core::to_string(static_cast<core::ResourceDim>(d)) +
                     " residue " + std::to_string(used[d]) + ")");
          }
        }
      }
    }
    // I6: only drain()/undrain() move the drain set — crashes and repairs
    // must never flip a bit.
    const bool draining = e.is_draining(id);
    if (draining != (shadow_drain_[id] != 0)) {
      fail("I6 drain-shadow", where,
           "machine " + std::to_string(id) + " drain bit is " +
               (draining ? "set" : "clear") + " but the oracle's shadow is " +
               (shadow_drain_[id] != 0 ? "set" : "clear"));
    }
  }
  if (live_view && listed != machines.size()) {
    fail("I4 live-view", where,
         "the engine lists " + std::to_string(machines.size()) +
             " machines but " + std::to_string(listed) +
             " are usable and not draining");
  }
}

void InvariantChecker::verify_ready_index(const sched::ReadyQueue& ready,
                                          const char* where) {
  // I2 ready-index: sequence numbers strictly increase along the enqueue
  // order; the index holds every queued handle once, each adjacent pair
  // strictly increasing under (order, sequence) — together exactly a stable
  // sort of the enqueue order; and the floor is a fresh minimum. O(Q).
  const std::vector<sched::ReadyQueue::Handle>& queued = ready.handles();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  infra::ResourceVector floor{kInf, kInf, kInf, kInf};
  for (std::size_t p = 0; p < queued.size(); ++p) {
    if (p > 0 && ready.seq(queued[p]) <= ready.seq(queued[p - 1])) {
      fail("I2 ready-index", where,
           "enqueue position " + std::to_string(p) + " has sequence " +
               std::to_string(ready.seq(queued[p])) + " after " +
               std::to_string(ready.seq(queued[p - 1])));
    }
    const infra::ResourceVector& demand = ready[queued[p]].demand;
    for (std::size_t d = 0; d < core::kResourceDims; ++d) {
      floor[d] = std::min(floor[d], demand[d]);
    }
  }
  if (!(ready.floor() == floor)) {
    fail("I2 ready-index", where,
         "the queue's floor differs from a fresh minimum over its " +
             std::to_string(queued.size()) + " tasks");
  }
  const sched::QueueOrder order = ready.index_order();
  if (order == nullptr) return;
  const std::vector<sched::ReadyQueue::Handle>& index = ready.ordered(order);
  if (index.size() != queued.size()) {
    fail("I2 ready-index", where,
         "the index holds " + std::to_string(index.size()) + " handles for " +
             std::to_string(queued.size()) + " queued tasks");
  }
  indexed_marks_.assign(ready.handle_bound(), 0);
  for (std::size_t p = 0; p < index.size(); ++p) {
    const sched::ReadyQueue::Handle h = index[p];
    if (!ready.contains(h) || indexed_marks_[h] != 0) {
      fail("I2 ready-index", where,
           "index position " + std::to_string(p) + " holds " +
               (ready.contains(h) ? "a handle twice" : "an unqueued handle") +
               " (" + std::to_string(h) + ")");
    }
    indexed_marks_[h] = 1;
    if (p == 0) continue;
    const sched::ReadyQueue::Handle prev = index[p - 1];
    const bool increasing =
        order(ready[prev], ready[h]) ||
        (!order(ready[h], ready[prev]) && ready.seq(prev) < ready.seq(h));
    if (!increasing) {
      fail("I2 ready-index", where,
           "index positions " + std::to_string(p - 1) + " and " +
               std::to_string(p) + " are out of (order, sequence) order");
    }
  }
}

std::string InvariantChecker::quiescence_report(
    const sched::ExecutionEngine& e) const {
  std::ostringstream out;
  out << e.ready_.size() << " ready, " << e.running_.live_count()
      << " running, " << (e.jobs_submitted() - e.completed_.size())
      << " jobs open;";
  std::size_t shown = 0;
  for (const sched::ReadyQueue::Handle h : e.ready_.handles()) {
    const sched::ReadyTask& rt = e.ready_[h];
    if (shown++ == 4) {
      out << " ...";
      break;
    }
    const auto& jr = e.jobs_[rt.job_slot];
    const infra::ResourceVector& d = jr.job.tasks[rt.task_index].demand;
    out << " [job " << jr.job.id << " task " << rt.task_index << " demand {"
        << d.cpu() << "c " << d.mem() << "g " << d.gpu()
        << "a}]";
  }
  out << " machines:";
  for (infra::MachineId id = 0; id < dc_.machine_count(); ++id) {
    const infra::Machine& m = dc_.machine(id);
    const char* state = m.usable() ? "up" : "down";
    out << " " << id << "=" << state
        << (e.is_draining(id) ? "/draining" : "") << "{"
        << m.available().cpu() << "c " << m.available().mem() << "g "
        << m.available().gpu() << "a}";
  }
  return out.str();
}

}  // namespace mcs::check
