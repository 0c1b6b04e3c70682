// The executable Fig. 5 FaaS stack, bottom three layers:
//
//   Resource Layer              — the datacenter's machines (infra::).
//   Resource Orchestration      — kubernetes-style placement of function
//                                 instances onto machines by memory.
//   Function Management         — instance lifecycle (cold start, warm
//                                 pool, keep-alive expiry), request
//                                 routing, per-function queueing, and
//                                 autoscaling one-instance-per-concurrent-
//                                 request up to a cap.
//
// The Function Composition layer lives in faas/composition.hpp. The bench
// for Figure 5 drives the image-pipeline business logic through all four.
#pragma once

#include <deque>
#include <map>

#include "core/callback.hpp"
#include "faas/function.hpp"
#include "infra/topology.hpp"
#include "metrics/stats.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mcs::faas {

struct InvocationResult {
  std::string function;
  double latency_seconds = 0.0;  ///< queue + routing + (cold start) + exec
  bool cold_start = false;
  sim::SimTime finished_at = 0;
};

struct FunctionStats {
  std::uint64_t invocations = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t queued = 0;       ///< invocations that had to wait
  metrics::Accumulator latency;   ///< seconds
};

class FaasPlatform {
 public:
  struct Config {
    sim::SimTime keep_alive = 10 * sim::kMinute;
  };

  FaasPlatform(sim::Simulator& sim, infra::Datacenter& dc, Config config,
               sim::Rng rng);

  /// Deploys a function (Function Management registry).
  void deploy(FunctionSpec spec);

  /// Completion callback: an owning SBO callable (move-only). Queued
  /// requests (Pending) carry it without a heap allocation for typical
  /// captures; std::function guaranteed one per queued invocation.
  using Callback = core::UniqueFunction<void(const InvocationResult&)>;

  /// Invokes a function now; `done` fires at completion. Requests that find
  /// no warm instance trigger a cold start (when capacity allows) or queue.
  void invoke(const std::string& name, Callback done);

  // --- observability (C13) ----------------------------------------------------

  [[nodiscard]] const FunctionStats& stats(const std::string& name) const;
  [[nodiscard]] std::size_t total_instances() const;
  [[nodiscard]] double memory_in_use_mb() const;
  [[nodiscard]] std::uint64_t instances_reaped() const { return reaped_; }

 private:
  struct Instance {
    std::uint64_t id;
    std::string function;
    infra::MachineId machine;
    bool busy = false;
    sim::SimTime last_idle = 0;
  };

  struct Pending {
    sim::SimTime enqueued;
    Callback done;
  };

  void start_execution(Instance& inst, const FunctionSpec& spec,
                       sim::SimTime queued_since, bool cold, Callback done);
  Instance* find_warm(const std::string& name);
  Instance* create_instance(const FunctionSpec& spec);
  void on_instance_idle(std::uint64_t instance_id);
  void reap_if_expired(std::uint64_t instance_id);

  sim::Simulator& sim_;
  infra::Datacenter& dc_;
  Config config_;
  sim::Rng rng_;
  FunctionRegistry registry_;
  std::map<std::uint64_t, Instance> instances_;
  std::uint64_t next_instance_ = 0;
  std::map<std::string, std::deque<Pending>> queues_;
  std::map<std::string, FunctionStats> stats_;
  std::uint64_t reaped_ = 0;
};

}  // namespace mcs::faas
