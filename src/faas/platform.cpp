#include "faas/platform.hpp"

#include <stdexcept>

namespace mcs::faas {

namespace {

/// Instances of one function alive at once, busy or warm.
constexpr std::size_t kMaxInstancesPerFunction = 200;
/// Management-layer routing overhead per request.
constexpr double kRoutingMs = 0.5;
/// Orchestration-layer placement overhead per new instance.
constexpr double kOrchestrationMs = 2.0;

infra::ResourceVector memory_only(double mb) {
  return infra::ResourceVector{0.0, mb / 1024.0, 0.0};
}

}  // namespace

FaasPlatform::FaasPlatform(sim::Simulator& sim, infra::Datacenter& dc,
                           Config config, sim::Rng rng)
    : sim_(sim), dc_(dc), config_(config), rng_(rng) {
  if (dc_.machine_count() == 0) {
    throw std::invalid_argument("FaasPlatform: empty datacenter");
  }
}

void FaasPlatform::deploy(FunctionSpec spec) {
  stats_[spec.name];  // create the stats row
  registry_.deploy(std::move(spec));
}

FaasPlatform::Instance* FaasPlatform::find_warm(const std::string& name) {
  for (auto& [id, inst] : instances_) {
    if (inst.function == name && !inst.busy) return &inst;
  }
  return nullptr;
}

FaasPlatform::Instance* FaasPlatform::create_instance(
    const FunctionSpec& spec) {
  std::size_t existing = 0;
  for (const auto& [id, inst] : instances_) {
    if (inst.function == spec.name) ++existing;
  }
  if (existing >= kMaxInstancesPerFunction) return nullptr;

  // Resource Orchestration: first machine with enough free memory.
  for (infra::Machine* m : dc_.machines()) {
    if (m->can_fit(memory_only(spec.memory_mb))) {
      m->allocate(memory_only(spec.memory_mb));
      const std::uint64_t id = next_instance_++;
      Instance inst;
      inst.id = id;
      inst.function = spec.name;
      inst.machine = m->id();
      auto [it, inserted] = instances_.emplace(id, std::move(inst));
      return &it->second;
    }
  }
  return nullptr;  // cluster out of memory
}

void FaasPlatform::invoke(const std::string& name, Callback done) {
  const auto spec = registry_.find(name);
  if (!spec) throw std::invalid_argument("FaasPlatform::invoke: unknown " + name);
  FunctionStats& st = stats_.at(name);
  ++st.invocations;

  if (Instance* warm = find_warm(name)) {
    start_execution(*warm, *spec, sim_.now(), /*cold=*/false, std::move(done));
    return;
  }
  if (Instance* fresh = create_instance(*spec)) {
    ++st.cold_starts;
    start_execution(*fresh, *spec, sim_.now(), /*cold=*/true, std::move(done));
    return;
  }
  // No capacity: queue until an instance frees up.
  ++st.queued;
  queues_[name].push_back(Pending{sim_.now(), std::move(done)});
}

void FaasPlatform::start_execution(Instance& inst, const FunctionSpec& spec,
                                   sim::SimTime queued_since, bool cold,
                                   Callback done) {
  inst.busy = true;
  const double queue_wait = sim::to_seconds(sim_.now() - queued_since);
  double latency = queue_wait + kRoutingMs / 1000.0;
  if (cold) {
    latency += kOrchestrationMs / 1000.0 + spec.cold_start_seconds;
  }
  latency += rng_.lognormal_mean_cv(spec.mean_exec_seconds, spec.cv_exec);

  const std::uint64_t id = inst.id;
  const std::string fname = spec.name;
  sim_.schedule_after(
      sim::from_seconds(latency - queue_wait),
      [this, id, fname, latency, cold, done = std::move(done)] {
        FunctionStats& st = stats_.at(fname);
        st.latency.add(latency);
        if (done) {
          InvocationResult result;
          result.function = fname;
          result.latency_seconds = latency;
          result.cold_start = cold;
          result.finished_at = sim_.now();
          done(result);
        }
        on_instance_idle(id);
      });
}

void FaasPlatform::on_instance_idle(std::uint64_t instance_id) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) return;
  Instance& inst = it->second;
  inst.busy = false;
  inst.last_idle = sim_.now();

  // Serve the queue first (warm reuse).
  auto qit = queues_.find(inst.function);
  if (qit != queues_.end() && !qit->second.empty()) {
    Pending next = std::move(qit->second.front());
    qit->second.pop_front();
    const auto spec = registry_.find(inst.function);
    start_execution(inst, *spec, next.enqueued, /*cold=*/false,
                    std::move(next.done));
    return;
  }
  // Otherwise arm the keep-alive timer.
  sim_.schedule_after(config_.keep_alive,
                      [this, instance_id] { reap_if_expired(instance_id); });
}

void FaasPlatform::reap_if_expired(std::uint64_t instance_id) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) return;
  const Instance& inst = it->second;
  if (inst.busy) return;
  if (sim_.now() - inst.last_idle < config_.keep_alive) return;  // reused since
  const auto spec = registry_.find(inst.function);
  infra::Machine& m = dc_.machine(inst.machine);
  if (m.usable()) m.release(memory_only(spec->memory_mb));
  instances_.erase(it);
  ++reaped_;
}

const FunctionStats& FaasPlatform::stats(const std::string& name) const {
  auto it = stats_.find(name);
  if (it == stats_.end()) {
    throw std::out_of_range("FaasPlatform::stats: unknown " + name);
  }
  return it->second;
}

// mcs-lint: allow(R1) — the PlatformTest scale-out and keep-alive cases
// (tests/faas_test.cpp) count live instances; nothing else exposes it.
std::size_t FaasPlatform::total_instances() const { return instances_.size(); }

double FaasPlatform::memory_in_use_mb() const {
  double mb = 0.0;
  for (const auto& [id, inst] : instances_) {
    mb += registry_.find(inst.function)->memory_mb;
  }
  return mb;
}

}  // namespace mcs::faas
