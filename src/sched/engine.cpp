#include "sched/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "metrics/stats.hpp"

namespace mcs::sched {

const char* to_string(EngineTransition t) {
  switch (t) {
    case EngineTransition::kJobSubmitted: return "job-submitted";
    case EngineTransition::kJobArrived: return "job-arrived";
    case EngineTransition::kJobCompleted: return "job-completed";
    case EngineTransition::kJobAbandoned: return "job-abandoned";
    case EngineTransition::kTaskStarted: return "task-started";
    case EngineTransition::kTaskFinished: return "task-finished";
    case EngineTransition::kTasksKilled: return "tasks-killed";
    case EngineTransition::kDrained: return "drained";
    case EngineTransition::kUndrained: return "undrained";
  }
  return "?";
}

const char* workload_class_name(std::size_t klass) {
  return klass == 0 ? "bot" : "workflow";
}

bool slo_class_covers(std::string_view spec_class, std::size_t klass) {
  return spec_class == "all" || spec_class == workload_class_name(klass);
}

std::vector<obs::SloSpec> parse_engine_slo_specs(std::string_view text) {
  std::vector<obs::SloSpec> specs = obs::parse_slo_specs(text);
  for (const obs::SloSpec& spec : specs) {
    bool covered = false;
    for (std::size_t c = 0; c < kWorkloadClasses; ++c) {
      covered = covered || slo_class_covers(spec.klass, c);
    }
    if (!covered) {
      throw std::invalid_argument("SLO spec: unknown class '" + spec.klass +
                                  "' (expected all, bot or workflow)");
    }
  }
  return specs;
}

ExecutionEngine::ExecutionEngine(sim::Simulator& sim, infra::Datacenter& dc,
                                 std::unique_ptr<AllocationPolicy> policy,
                                 EngineConfig config)
    : sim_(sim), dc_(dc), policy_(std::move(policy)), config_(config) {
  if (!policy_) throw std::invalid_argument("ExecutionEngine: null policy");
  // Register the engine's instruments once; hot paths record through the
  // cached pointers (an instrument update is a single integer add, the
  // same cost as the raw tally members these replaced).
  ctr_submitted_ = &registry_.counter("jobs.submitted");
  ctr_completed_ = &registry_.counter("jobs.completed");
  ctr_abandoned_ = &registry_.counter("jobs.abandoned");
  ctr_tasks_started_ = &registry_.counter("tasks.started");
  ctr_tasks_finished_ = &registry_.counter("tasks.finished");
  ctr_tasks_killed_ = &registry_.counter("tasks.killed");
  ctr_tasks_scavenged_ = &registry_.counter("tasks.scavenged");
  h_job_wait_s_ = &registry_.histogram("job.wait_seconds");
  h_job_response_s_ = &registry_.histogram("job.response_seconds");
  h_job_slowdown_ = &registry_.histogram("job.slowdown");
  h_task_runtime_s_ = &registry_.histogram("task.runtime_seconds");
  // Lifecycle spans are opt-in: the instrument set of a default-config
  // engine is pinned by the scalar-digest goldens (fold_digest hashes
  // names), so the per-class decomposition only registers when asked for.
  if (config_.lifecycle_spans) {
    for (std::size_t c = 0; c < kWorkloadClasses; ++c) {
      const std::string prefix =
          std::string("span.") + workload_class_name(c) + ".";
      spans_[c].queueing = &registry_.histogram(prefix + "queueing_seconds");
      spans_[c].placement = &registry_.histogram(prefix + "placement_seconds");
      spans_[c].service = &registry_.histogram(prefix + "service_seconds");
      spans_[c].response = &registry_.histogram(prefix + "response_seconds");
      spans_[c].slowdown = &registry_.histogram(prefix + "slowdown");
      spans_[c].abandon = &registry_.histogram(prefix + "abandon_seconds");
    }
  }
}

void ExecutionEngine::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  tn_.job_arrived = tracer_->intern("job.arrived");
  tn_.job = tracer_->intern("job");
  tn_.job_abandoned = tracer_->intern("job.abandoned");
  tn_.task_start = tracer_->intern("task.start");
  tn_.task = tracer_->intern("task");
  tn_.tasks_killed = tracer_->intern("tasks.killed");
  tn_.drain = tracer_->intern("drain");
  tn_.undrain = tracer_->intern("undrain");
  // The span names only exist when spans can be emitted: the trace digest
  // hashes the name table, and default-config digests are golden-pinned.
  if (config_.lifecycle_spans) {
    tn_.task_queue = tracer_->intern("task.queue");
    tn_.job_place = tracer_->intern("job.place");
  }
}

void ExecutionEngine::set_slo(obs::SloTracker* slo) {
  slo_ = slo;
  for (auto& list : slo_by_class_) list.clear();
  if (slo_ == nullptr) return;
  for (std::size_t i = 0; i < slo_->specs().size(); ++i) {
    for (std::size_t c = 0; c < kWorkloadClasses; ++c) {
      if (slo_class_covers(slo_->specs()[i].klass, c)) {
        slo_by_class_[c].push_back(i);
      }
    }
  }
}

std::uint32_t ExecutionEngine::intern_user(const std::string& name) {
  const auto [it, inserted] = user_ids_.try_emplace(
      name, static_cast<std::uint32_t>(user_usage_.size()));
  if (inserted) user_usage_.push_back(0.0);
  return it->second;
}

void ExecutionEngine::submit(workload::Job job) {
  if (!job.valid()) throw std::invalid_argument("ExecutionEngine: invalid job");
  if (job.tasks.empty()) return;
  if (job.submit_time < sim_.now()) job.submit_time = sim_.now();
  const workload::JobId id = job.id;
  if (id_to_slot_.count(id) != 0) {
    throw std::invalid_argument("ExecutionEngine: duplicate job id");
  }

  const std::uint32_t slot = jobs_.acquire();
  JobSlot& jr = jobs_[slot];
  jr.job = std::move(job);
  const std::size_t n = jr.job.tasks.size();
  jr.missing_deps.assign(n, 0);
  jr.retries.assign(n, 0);
  jr.done.assign(n, 0);
  jr.remaining = n;
  jr.failures = 0;
  jr.first_start = 0;
  jr.started = false;
  jr.klass = jr.job.is_workflow() ? 1 : 0;
  jr.user_id = intern_user(jr.job.user);
  // Placement constraints (C4): resolve the zone expression once through
  // the label-filter cache (the returned reference is map-node stable).
  jr.zone_mask = jr.job.placement.zones.empty()
                     ? nullptr
                     : &zone_cache_.mask_for(jr.job.placement.zones, dc_);

  // Successor CSR: counts, prefix sum, fill (targets of each task end up in
  // ascending order because tasks are topologically ordered).
  jr.succ_offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& deps = jr.job.tasks[i].deps;
    jr.missing_deps[i] = static_cast<std::uint32_t>(deps.size());
    for (std::size_t d : deps) ++jr.succ_offsets[d + 1];
  }
  for (std::size_t t = 0; t < n; ++t) {
    jr.succ_offsets[t + 1] += jr.succ_offsets[t];
  }
  jr.succ_targets.assign(jr.succ_offsets[n], 0);
  succ_cursor_.assign(jr.succ_offsets.begin(), jr.succ_offsets.end());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d : jr.job.tasks[i].deps) {
      jr.succ_targets[succ_cursor_[d]++] = static_cast<std::uint32_t>(i);
    }
  }

  const sim::SimTime at = jr.job.submit_time;
  id_to_slot_.emplace(id, slot);
  ctr_submitted_->add();
  sim_.schedule_at(at, [this, slot] { arrive(slot); });
  notify(EngineTransition::kJobSubmitted);
}

void ExecutionEngine::submit_all(std::vector<workload::Job> jobs) {
  for (auto& j : jobs) submit(std::move(j));
}

void ExecutionEngine::set_policy(std::unique_ptr<AllocationPolicy> policy) {
  if (!policy) throw std::invalid_argument("set_policy: null");
  policy_ = std::move(policy);
  kick();
}

bool ExecutionEngine::demand_satisfiable(
    const infra::ResourceVector& demand,
    const std::vector<std::uint64_t>* zone_mask) const {
  ReadyTask zone;  // carries only the zone filter machine_in_zone reads
  if (zone_mask != nullptr) {
    // A mask built before the fleet had machines admits none (empty vector
    // storage may be null, which would read as unconstrained).
    if (zone_mask->empty()) return false;
    zone.zone_mask = zone_mask->data();
    zone.zone_words = zone_mask->size();
  }
  const std::size_t machine_count = dc_.machine_count();
  for (std::uint32_t id = 0; id < machine_count; ++id) {
    if (machine_in_zone(zone, id) &&
        admit(demand, dc_.machine(id).capacity(), config_.scavenging)) {
      return true;
    }
  }
  return false;
}

void ExecutionEngine::arrive(std::uint32_t job_slot) {
  JobSlot& jr = jobs_[job_slot];
  const std::size_t n = jr.job.tasks.size();
  // A task whose demand exceeds every machine's *total* capacity — even
  // machines that are currently down or powered off, and even granting
  // maximal memory scavenging — can never be placed by any future
  // schedule. Abandon the job at arrival instead of parking it forever:
  // a forever-pending job keeps all_done() false, which spins monitor
  // loops (autoscalers, portfolio) without end.
  for (std::size_t i = 0; i < n; ++i) {
    if (!demand_satisfiable(jr.job.tasks[i].demand, jr.zone_mask)) {
      complete_job(job_slot, /*abandoned=*/true);
      return;
    }
  }
  // Upward ranks for HEFT via the CSR successor lists: critical-path
  // distance to the job's exit in reference seconds. Tasks are
  // topologically ordered; sweep backwards.
  rank_scratch_.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double best = 0.0;
    for (std::uint32_t k = jr.succ_offsets[i]; k < jr.succ_offsets[i + 1];
         ++k) {
      best = std::max(best, rank_scratch_[jr.succ_targets[k]]);
    }
    rank_scratch_[i] = jr.job.tasks[i].work_seconds + best;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (jr.missing_deps[i] == 0) {
      enqueue_ready(jr, job_slot, i, rank_scratch_[i]);
    }
  }
  kick();
  if (tracer_ != nullptr) {
    tracer_->instant(sim_.now(), tn_.job_arrived, 0,
                     static_cast<std::int64_t>(jr.job.id),
                     static_cast<std::int64_t>(n));
  }
  notify(EngineTransition::kJobArrived);
}

// mcs-lint: hot
void ExecutionEngine::enqueue_ready(JobSlot& jr, std::uint32_t job_slot,
                                    std::size_t task_index, double rank) {
  ReadyTask rt;
  rt.job = jr.job.id;
  rt.task_index = task_index;
  rt.work_seconds = jr.job.tasks[task_index].work_seconds;
  rt.demand = jr.job.tasks[task_index].demand;
  rt.job_submit = jr.job.submit_time;
  rt.became_ready = sim_.now();
  rt.user_id = jr.user_id;
  rt.job_slot = job_slot;
  rt.rank = rank;
  if (jr.zone_mask != nullptr) {
    rt.zone_mask = jr.zone_mask->data();
    rt.zone_words = jr.zone_mask->size();
  }
  rt.spread_limit = jr.job.placement.spread_limit;
  // C3: the job's latency SLO becomes an absolute deadline the EDF policy
  // can schedule against.
  if (const auto slo = jr.job.sla.objective(core::NfrDimension::kLatency)) {
    rt.deadline =
        sim::saturating_add(jr.job.submit_time, sim::from_seconds(slo->target));
  }
  (void)ready_.push(rt);
}

void ExecutionEngine::drain(infra::MachineId id) {
  const std::size_t word = id >> 6;
  if (word >= draining_bits_.size()) draining_bits_.resize(word + 1, 0);
  draining_bits_[word] |= std::uint64_t{1} << (id & 63);
  rebuild_pending_ = true;
  if (tracer_ != nullptr) tracer_->instant(sim_.now(), tn_.drain, id);
  notify(EngineTransition::kDrained, id);
}
void ExecutionEngine::undrain(infra::MachineId id) {
  const std::size_t word = id >> 6;
  if (word < draining_bits_.size()) {
    draining_bits_[word] &= ~(std::uint64_t{1} << (id & 63));
  }
  rebuild_pending_ = true;
  kick();
  if (tracer_ != nullptr) tracer_->instant(sim_.now(), tn_.undrain, id);
  notify(EngineTransition::kUndrained, id);
}
bool ExecutionEngine::is_draining(infra::MachineId id) const {
  const std::size_t word = id >> 6;
  return word < draining_bits_.size() &&
         (draining_bits_[word] >> (id & 63) & 1) != 0;
}

void ExecutionEngine::kick() {
  if (schedule_pending_) return;
  schedule_pending_ = true;
  sim_.schedule_after(0, [this] {
    schedule_pending_ = false;
    try_schedule();
  });
}

// mcs-lint: hot
void ExecutionEngine::try_schedule() {
  if (ready_.empty()) return;
  bool progress = true;
  while (progress && !ready_.empty()) {
    progress = false;
    if (!view_current()) rebuild_view();
    if (planned_.machines().empty()) break;

    // The policy plans on the live view: it takes from planned_ and
    // restores it before decide() returns, also when it throws.
    const auto assignments = policy_->decide(live_view());

    // Start newest first: descending enqueue sequence is descending queue
    // position, the order that set the event sequence numbers the digests
    // pin. Each start is re-validated against live machine state; a handle
    // the queue does not hold is dropped and a repeated one skipped.
    starts_scratch_.clear();
    starts_scratch_.reserve(assignments.size());
    for (const Assignment& a : assignments) {
      if (ready_.contains(a.task)) {
        starts_scratch_.push_back(Start{ready_.seq(a.task), a});
      }
    }
    // A walk of the enqueue order (FCFS arrivals) proposes ascending
    // sequences: those are read backwards instead of sorted.
    const auto oldest_first = [](const Start& x, const Start& y) {
      return x.seq < y.seq;
    };
    if (std::is_sorted(starts_scratch_.begin(), starts_scratch_.end(),
                       oldest_first)) {
      std::reverse(starts_scratch_.begin(), starts_scratch_.end());
    } else {
      std::sort(starts_scratch_.rbegin(), starts_scratch_.rend(),
                oldest_first);
    }
    for (std::size_t i = 0; i < starts_scratch_.size(); ++i) {
      const Start& s = starts_scratch_[i];
      if (i > 0 && s.seq == starts_scratch_[i - 1].seq) continue;
      const Assignment& a = s.assignment;
      if (const auto admission = admits(ready_[a.task], a.machine)) {
        start_task(a.task, a.machine, *admission);
        progress = true;
      }
    }

    // Scavenging fallback (C7, [118]): policies only propose placements
    // that fit whole; when nothing fits and scavenging is on, probe each
    // ready task, newest first, on every planned machine, and start the
    // first pair admits() takes, borrowing memory if it must.
    if (!progress && config_.scavenging.enabled) {
      const std::vector<ReadyQueue::Handle>& queued = ready_.handles();
      for (std::size_t i = queued.size(); i-- > 0 && !progress;) {
        for (const infra::Machine* m : planned_.machines()) {
          if (const auto admission = admits(ready_[queued[i]], m->id())) {
            start_task(queued[i], m->id(), *admission);
            progress = true;
            break;
          }
        }
      }
    }
  }
}

// mcs-lint: hot
std::optional<Admission> admit(const infra::ResourceVector& demand,
                               const infra::ResourceVector& free,
                               const ScavengingConfig& scavenging) {
  if (demand.fits_within(free)) return Admission{demand, 1.0, false};
  // Memory scavenging (C7, [118]): the task holds what memory is free and
  // borrows the rest. Every other dimension, net included, must fit whole;
  // past that test only memory was short, so demand.mem() > held.mem() >= 0.
  infra::ResourceVector held = demand;
  held.mem() = std::max(free.mem(), 0.0);
  if (!scavenging.enabled || !held.fits_within(free)) return std::nullopt;
  const double borrowed = (demand.mem() - held.mem()) / demand.mem();
  if (borrowed > scavenging.max_borrow_fraction) return std::nullopt;
  return Admission{held, 1.0 + scavenging.penalty * borrowed, true};
}

// mcs-lint: hot
std::optional<Admission> ExecutionEngine::admits(const ReadyTask& rt,
                                                 infra::MachineId id) const {
  const infra::Machine& m = dc_.machine(id);
  // Zone and anti-affinity against the live set: a round's own proposals
  // count once they start, so a second task of one job can be refused here.
  if (!m.usable() || is_draining(id) || !placement_allows(&running_, rt, id)) {
    return std::nullopt;
  }
  return admit(rt.demand, m.available(), config_.scavenging);
}

// mcs-lint: hot
void ExecutionEngine::start_task(ReadyQueue::Handle task,
                                 infra::MachineId machine_id,
                                 const Admission& admission) {
  const ReadyTask rt = ready_[task];
  infra::Machine& m = dc_.machine(machine_id);
  m.allocate(admission.held);
  own_change(machine_id);
  ready_.erase(task);
  if (admission.borrowed) ctr_tasks_scavenged_->add();

  JobSlot& jr = jobs_[rt.job_slot];
  if (!jr.started) {
    jr.started = true;
    jr.first_start = sim_.now();
    if (config_.lifecycle_spans) {
      // Placement latency: submit -> first task start, once per job.
      spans_[jr.klass].placement->record(
          sim::to_seconds(sim_.now() - rt.job_submit));
      if (tracer_ != nullptr) {
        tracer_->complete(rt.job_submit, sim_.now() - rt.job_submit,
                          tn_.job_place, 0,
                          static_cast<std::int64_t>(rt.job));
      }
    }
  }
  if (config_.lifecycle_spans) {
    // Queueing delay: became_ready -> start, stamped per attempt — a task
    // re-queued after a machine crash contributes a fresh sample, so the
    // per-class queueing histogram attributes retry waits to the retry.
    spans_[jr.klass].queueing->record(
        sim::to_seconds(sim_.now() - rt.became_ready));
    if (tracer_ != nullptr) {
      tracer_->complete(rt.became_ready, sim_.now() - rt.became_ready,
                        tn_.task_queue, machine_id,
                        static_cast<std::int64_t>(rt.job),
                        static_cast<std::int64_t>(rt.task_index));
    }
  }

  const double runtime_s =
      rt.work_seconds * admission.runtime_multiplier / m.speed_factor();
  const sim::SimTime end = sim::saturating_add(
      sim_.now(), std::max<sim::SimTime>(sim::from_seconds(runtime_s), 1));

  const std::uint32_t key = running_.add(
      RunningTask{rt.job_slot, static_cast<std::uint32_t>(rt.task_index),
                  machine_id, sim_.now(), end, admission.held, rt.work_seconds,
                  {}});
  const std::uint32_t gen = running_.gen(key);
  running_[key].completion = sim_.schedule_at(end, [this, key, gen] {
    finish_task(key, gen);
  });
  ctr_tasks_started_->add();
  if (tracer_ != nullptr) {
    tracer_->instant(sim_.now(), tn_.task_start, machine_id,
                     static_cast<std::int64_t>(rt.job),
                     static_cast<std::int64_t>(rt.task_index));
  }
  notify(EngineTransition::kTaskStarted, machine_id);
}

// mcs-lint: hot
void ExecutionEngine::finish_task(std::uint32_t key, std::uint32_t gen) {
  // Generation guard: the slot may have been recycled after a failure
  // kill or job abandonment cancelled this completion's run.
  if (!running_.live(key) || running_.gen(key) != gen) return;
  const RunningTask rt = running_[key];
  running_.remove(key);

  infra::Machine& m = dc_.machine(rt.machine);
  if (m.usable()) {
    m.release(rt.held);
    own_change(rt.machine);
  }

  const double core_seconds =
      rt.held.cpu() * sim::to_seconds(sim_.now() - rt.start);
  busy_core_seconds_ += core_seconds;
  ctr_tasks_finished_->add();
  h_task_runtime_s_->record(sim::to_seconds(sim_.now() - rt.start));

  JobSlot& jr = jobs_[rt.job_slot];
  if (config_.lifecycle_spans) {
    // Service time: start -> finish (only tasks that actually finished —
    // killed tasks never reach here, so crashes can't pollute service).
    spans_[jr.klass].service->record(sim::to_seconds(sim_.now() - rt.start));
  }
  user_usage_[jr.user_id] += core_seconds;
  jr.done[rt.task_index] = 1;
  --jr.remaining;
  if (tracer_ != nullptr) {
    tracer_->complete(rt.start, sim_.now() - rt.start, tn_.task, rt.machine,
                      static_cast<std::int64_t>(jr.job.id),
                      static_cast<std::int64_t>(rt.task_index));
  }

  // Unlock successors via the CSR list (O(out-degree)).
  for (std::uint32_t k = jr.succ_offsets[rt.task_index];
       k < jr.succ_offsets[rt.task_index + 1]; ++k) {
    const std::uint32_t i = jr.succ_targets[k];
    if (jr.done[i] != 0) continue;
    if (--jr.missing_deps[i] == 0) {
      // Rank 0 on requeue (matches pre-CSR behavior: HEFT ranks are
      // stamped at arrival only).
      enqueue_ready(jr, rt.job_slot, i, 0.0);
    }
  }
  if (jr.remaining == 0) {
    complete_job(rt.job_slot, /*abandoned=*/false);
  }
  kick();
  notify(EngineTransition::kTaskFinished, rt.machine);
}

void ExecutionEngine::on_machine_failed(infra::MachineId id) {
  // The machine has already dropped its allocations via Machine::fail().
  // Index-order scan is safe against removals: complete_job(abandoned)
  // only marks other running slots dead, which the live() check skips.
  std::int64_t killed_here = 0;
  for (std::uint32_t key = 0; key < running_.size(); ++key) {
    if (!running_.live(key) || running_[key].machine != id) continue;
    const RunningTask rt = running_[key];
    running_.remove(key);
    sim_.cancel(rt.completion);
    ctr_tasks_killed_->add();
    ++killed_here;

    if (!jobs_.live(rt.job_slot)) continue;  // job already completed/abandoned
    JobSlot& jr = jobs_[rt.job_slot];
    ++jr.failures;
    if (jr.retries[rt.task_index] < config_.max_retries) {
      ++jr.retries[rt.task_index];
      enqueue_ready(jr, rt.job_slot, rt.task_index, 0.0);
    } else {
      // Abandon the whole job: it can never finish.
      complete_job(rt.job_slot, /*abandoned=*/true);
    }
  }
  kick();
  if (tracer_ != nullptr) {
    tracer_->instant(sim_.now(), tn_.tasks_killed, id, killed_here);
  }
  notify(EngineTransition::kTasksKilled, id);
}

void ExecutionEngine::complete_job(std::uint32_t job_slot, bool abandoned) {
  JobSlot& jr = jobs_[job_slot];
  JobStats stats;
  stats.id = jr.job.id;
  stats.submit = jr.job.submit_time;
  stats.first_start = jr.started ? jr.first_start : sim_.now();
  stats.finish = sim_.now();
  stats.critical_path_seconds = jr.job.critical_path_seconds();
  stats.task_failures = jr.failures;
  stats.abandoned = abandoned;
  const double response_s = stats.response_seconds();
  if (abandoned) {
    ctr_abandoned_->add();
  } else {
    ctr_completed_->add();
    h_job_wait_s_->record(stats.wait_seconds());
    h_job_response_s_->record(response_s);
    h_job_slowdown_->record(stats.slowdown());
  }
  if (config_.lifecycle_spans) {
    // Per-class decomposition: an abandoned job records only how long it
    // occupied the system before abandonment — never to response/slowdown
    // (those histograms hold completed jobs only, like the legacy ones).
    SpanInstruments& sp = spans_[jr.klass];
    if (abandoned) {
      sp.abandon->record(response_s);
    } else {
      sp.response->record(response_s);
      sp.slowdown->record(stats.slowdown());
    }
  }
  if (slo_ != nullptr) {
    // An abandoned job is an infinitely-late sample: it counts against
    // every applicable objective and can never be "good".
    const double latency = abandoned
                               ? std::numeric_limits<double>::infinity()
                               : response_s;
    for (std::size_t i : slo_by_class_[jr.klass]) {
      slo_->observe(i, stats.finish, latency);
    }
  }
  if (tracer_ != nullptr) {
    tracer_->complete(stats.submit, stats.finish - stats.submit,
                      abandoned ? tn_.job_abandoned : tn_.job, 0,
                      static_cast<std::int64_t>(stats.id),
                      static_cast<std::int64_t>(jr.job.tasks.size()));
  }
  // mcs-lint: allow(H3) — one append per completed *job* (not per task);
  // job count is unknown under open arrivals, growth is amortized.
  completed_.push_back(stats);

  if (abandoned) {
    // Drop any still-queued/running work of this job.
    ready_.erase_job(job_slot);
    for (std::uint32_t key = 0; key < running_.size(); ++key) {
      if (!running_.live(key) || running_[key].job_slot != job_slot) continue;
      const RunningTask rt = running_[key];
      sim_.cancel(rt.completion);
      infra::Machine& m = dc_.machine(rt.machine);
      if (m.usable()) {
        m.release(rt.held);
        own_change(rt.machine);
      }
      running_.remove(key);
    }
    jr.remaining = 0;
  }
  jr.zone_mask = nullptr;
  id_to_slot_.erase(jr.job.id);
  jobs_.release(job_slot);
  notify(abandoned ? EngineTransition::kJobAbandoned
                   : EngineTransition::kJobCompleted);
}

bool ExecutionEngine::all_done() const {
  return jobs_.empty() && ready_.empty() && running_.empty();
}

double ExecutionEngine::demand_cores() const {
  double cores = 0.0;
  for (const ReadyQueue::Handle h : ready_.handles()) {
    cores += ready_[h].demand.cpu();
  }
  running_.for_each([&](std::uint32_t, const RunningTask& rt) {
    cores += rt.held.cpu();
  });
  return cores;
}

double ExecutionEngine::supply_cores() const {
  double cores = 0.0;
  const std::size_t machine_count = dc_.machine_count();
  const infra::Datacenter& dc = dc_;
  for (std::uint32_t id = 0; id < machine_count; ++id) {
    const infra::Machine& m = dc.machine(id);
    if (m.usable() && !is_draining(id)) cores += m.capacity().cpu();
  }
  return cores;
}

double ExecutionEngine::pending_work_core_seconds() const {
  double work = 0.0;
  jobs_.for_each([&](std::uint32_t, const JobSlot& jr) {
    for (std::size_t i = 0; i < jr.job.tasks.size(); ++i) {
      if (jr.done[i] == 0) {
        work += jr.job.tasks[i].work_seconds * jr.job.tasks[i].demand.cpu();
      }
    }
  });
  // Running tasks are already counted as not-done above; subtract the part
  // already executed (approximate by elapsed fraction).
  running_.for_each([&](std::uint32_t, const RunningTask& rt) {
    const double elapsed = sim::to_seconds(sim_.now() - rt.start);
    work -= std::min(elapsed, rt.work_seconds) * rt.held.cpu();
  });
  return std::max(work, 0.0);
}

std::size_t ExecutionEngine::eligible_within(sim::SimTime window) const {
  const sim::SimTime horizon = sim::saturating_add(sim_.now(), window);
  // One key (job slot, task) per dependency edge out of a running task
  // that ends inside the window, read off its CSR successor list: a
  // dependency runs at most once, and one listed twice in a task's deps is
  // listed twice in the CSR too, so a task's key count is how many of its
  // missing dependencies the window resolves.
  std::vector<std::uint64_t> resolving;
  running_.for_each([&](std::uint32_t, const RunningTask& rt) {
    if (rt.expected_end > horizon) return;
    const JobSlot& jr = jobs_[rt.job_slot];
    for (std::uint32_t k = jr.succ_offsets[rt.task_index];
         k < jr.succ_offsets[rt.task_index + 1]; ++k) {
      resolving.push_back(std::uint64_t{rt.job_slot} << 32 |
                          jr.succ_targets[k]);
    }
  });
  std::sort(resolving.begin(), resolving.end());
  std::size_t eligible = ready_.size();
  for (std::size_t first = 0, last = 0; first < resolving.size();
       first = last) {
    const std::uint64_t key = resolving[first];
    while (last < resolving.size() && resolving[last] == key) ++last;
    const JobSlot& jr = jobs_[static_cast<std::uint32_t>(key >> 32)];
    if (last - first >= jr.missing_deps[static_cast<std::uint32_t>(key)]) {
      ++eligible;
    }
  }
  return eligible;
}

std::map<std::string, double> ExecutionEngine::user_usage() const {
  std::map<std::string, double> out;
  for (const auto& [name, uid] : user_ids_) out.emplace(name, user_usage_[uid]);
  return out;
}

SchedulerView ExecutionEngine::snapshot_view() {
  if (!view_current()) rebuild_view();
  return live_view();
}

// mcs-lint: allow(H3) — the O(machines) build of the live view, run only
// when the drain set moved or a machine changed behind the engine's back
// (one build per simulation on a quiet fleet), so its allocations are not
// per round.
void ExecutionEngine::rebuild_view() {
  const std::size_t machine_count = dc_.machine_count();
  const infra::Datacenter& dc = dc_;
  std::vector<const infra::Machine*> usable;
  usable.reserve(machine_count);
  for (std::uint32_t id = 0; id < machine_count; ++id) {
    const infra::Machine& m = dc.machine(id);
    if (m.usable() && !is_draining(id)) usable.push_back(&m);
  }
  planned_ = PlannedCapacity(std::move(usable));
  expected_mutations_ = dc_.mutations();
  rebuild_pending_ = false;
}

// mcs-lint: hot
void ExecutionEngine::own_change(infra::MachineId id) {
  ++expected_mutations_;
  planned_.refresh(id);
}

// mcs-lint: hot
SchedulerView ExecutionEngine::live_view() {
  SchedulerView view;
  view.now = sim_.now();
  view.ready = &ready_;
  view.planned = &planned_;
  view.running = &running_;
  view.user_usage = &user_usage_;
  view.placement = &config_.placement;
  return view;
}

RunResult summarize_run(const ExecutionEngine& engine,
                        const infra::Datacenter& dc) {
  RunResult result;
  result.jobs = engine.completed();
  if (result.jobs.empty()) return result;

  metrics::Accumulator slowdown, wait;
  sim::SimTime first_submit = sim::kTimeInfinity;
  sim::SimTime last_finish = 0;
  for (const JobStats& j : result.jobs) {
    if (j.abandoned) {
      ++result.abandoned;
      continue;
    }
    slowdown.add(j.slowdown());
    wait.add(j.wait_seconds());
    first_submit = std::min(first_submit, j.submit);
    last_finish = std::max(last_finish, j.finish);
  }
  result.mean_slowdown = slowdown.mean();
  result.p95_slowdown = slowdown.count() > 0 ? slowdown.quantile(0.95) : 0.0;
  result.mean_wait_seconds = wait.mean();
  if (last_finish > first_submit) {
    result.makespan_seconds = sim::to_seconds(last_finish - first_submit);
    const double capacity_cores = dc.total_capacity().cpu();
    if (capacity_cores > 0.0 && result.makespan_seconds > 0.0) {
      result.utilization = engine.busy_core_seconds() /
                           (capacity_cores * result.makespan_seconds);
    }
  }
  return result;
}

RunResult run_workload(infra::Datacenter& dc, std::vector<workload::Job> jobs,
                       std::unique_ptr<AllocationPolicy> policy,
                       EngineConfig config) {
  sim::Simulator sim;
  ExecutionEngine engine(sim, dc, std::move(policy), config);
  engine.submit_all(std::move(jobs));
  sim.run_until();
  return summarize_run(engine, dc);
}

}  // namespace mcs::sched
