#include "autoscale/autoscaler.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "metrics/stats.hpp"
#include "sched/allocation.hpp"

namespace mcs::autoscale {

namespace {

std::size_t to_machines(double x) {
  if (x <= 0.0) return 0;
  return static_cast<std::size_t>(std::ceil(x - 1e-9));
}

class NoScaler final : public Autoscaler {
 public:
  [[nodiscard]] std::string name() const override { return "none(max)"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    return ctx.max_machines;
  }
};

class React final : public Autoscaler {
 public:
  explicit React(double headroom) : headroom_(headroom) {}
  [[nodiscard]] std::string name() const override { return "react"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    return to_machines(ctx.demand_machines * (1.0 + headroom_));
  }

 private:
  double headroom_;
};

class Adapt final : public Autoscaler {
 public:
  Adapt(double gain, std::size_t max_step) : gain_(gain), max_step_(max_step) {}
  [[nodiscard]] std::string name() const override { return "adapt"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    const double gap = ctx.demand_machines -
                       static_cast<double>(ctx.supply_machines);
    double step = gain_ * gap;
    step = std::clamp(step, -static_cast<double>(max_step_),
                      static_cast<double>(max_step_));
    const double target = static_cast<double>(ctx.supply_machines) + step;
    return to_machines(std::max(target, 0.0));
  }

 private:
  double gain_;
  std::size_t max_step_;
};

class Hist final : public Autoscaler {
 public:
  explicit Hist(double percentile) : percentile_(percentile) {}
  [[nodiscard]] std::string name() const override { return "hist"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    const std::size_t bucket = static_cast<std::size_t>(
        (ctx.now / sim::kHour) % 24);
    auto& samples = buckets_[bucket];
    // mcs-lint: allow(H3) — autoscaler ticks are periodic (minutes of sim
    // time), far off the per-task path the `decide` name collides with.
    samples.push_back(ctx.demand_machines);
    if (samples.size() < 3) {
      // Cold bucket: behave like React.
      return to_machines(ctx.demand_machines);
    }
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    const double pos =
        percentile_ * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return to_machines(sorted[lo] * (1.0 - frac) + sorted[hi] * frac);
  }

 private:
  double percentile_;
  std::array<std::vector<double>, 24> buckets_;
};

class Reg final : public Autoscaler {
 public:
  explicit Reg(std::size_t window) : window_(window) {}
  [[nodiscard]] std::string name() const override { return "reg"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    const auto& hist = *ctx.demand_history;
    if (hist.size() < 3) return to_machines(ctx.demand_machines);
    const std::size_t n = std::min(window_, hist.size());
    std::vector<double> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<double>(i);
      y[i] = hist[hist.size() - n + i];
    }
    const auto fit = metrics::least_squares(x, y);
    const double predicted =
        fit.intercept + fit.slope * static_cast<double>(n);  // next tick
    return to_machines(std::max(predicted, 0.0));
  }

 private:
  std::size_t window_;
};

class ConPaas final : public Autoscaler {
 public:
  ConPaas(double alpha, double beta) : alpha_(alpha), beta_(beta) {}
  [[nodiscard]] std::string name() const override { return "conpaas"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    // Holt double exponential smoothing: level + trend, forecast one ahead.
    if (!initialized_) {
      level_ = ctx.demand_machines;
      trend_ = 0.0;
      initialized_ = true;
      return to_machines(ctx.demand_machines);
    }
    const double prev_level = level_;
    level_ = alpha_ * ctx.demand_machines + (1.0 - alpha_) * (level_ + trend_);
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    return to_machines(std::max(level_ + trend_, 0.0));
  }

 private:
  double alpha_, beta_;
  double level_ = 0.0, trend_ = 0.0;
  bool initialized_ = false;
};

class Plan final : public Autoscaler {
 public:
  explicit Plan(sim::SimTime drain_horizon) : horizon_(drain_horizon) {}
  [[nodiscard]] std::string name() const override { return "plan"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    // Machines needed to drain the pending work within the horizon...
    const double horizon_s = sim::to_seconds(horizon_);
    const double drain_need =
        horizon_s <= 0.0 ? 0.0
                         : ctx.pending_work_machine_seconds / horizon_s;
    // ...but never more than the work can use in parallel right now.
    const double lop_cores = static_cast<double>(ctx.eligible_tasks) *
                             ctx.mean_task_cores;
    const double lop_machines =
        ctx.cores_per_machine <= 0.0 ? 0.0 : lop_cores / ctx.cores_per_machine;
    return to_machines(std::min(std::max(drain_need, 1.0), std::max(lop_machines, 1.0)));
  }

 private:
  sim::SimTime horizon_;
};

class Pid final : public Autoscaler {
 public:
  Pid(double kp, double ki, double kd) : kp_(kp), ki_(ki), kd_(kd) {}
  [[nodiscard]] std::string name() const override { return "pid"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    // Error in machines; dt in controller ticks (the decision interval).
    const double error =
        ctx.demand_machines - static_cast<double>(ctx.supply_machines);
    integral_ += error;
    // Anti-windup: clamp the integral to the actuator range.
    integral_ = std::clamp(integral_, -static_cast<double>(ctx.max_machines),
                           static_cast<double>(ctx.max_machines));
    const double derivative = initialized_ ? error - prev_error_ : 0.0;
    prev_error_ = error;
    initialized_ = true;
    const double output = static_cast<double>(ctx.supply_machines) +
                          kp_ * error + ki_ * integral_ + kd_ * derivative;
    return to_machines(std::max(output, 0.0));
  }

 private:
  double kp_, ki_, kd_;
  double integral_ = 0.0;
  double prev_error_ = 0.0;
  bool initialized_ = false;
};

class Token final : public Autoscaler {
 public:
  [[nodiscard]] std::string name() const override { return "token"; }
  std::size_t decide(const AutoscaleContext& ctx) override {
    const double cores = static_cast<double>(ctx.eligible_tasks) *
                         ctx.mean_task_cores;
    return to_machines(ctx.cores_per_machine <= 0.0
                           ? 0.0
                           : cores / ctx.cores_per_machine);
  }
};

}  // namespace

std::unique_ptr<Autoscaler> make_no_scaler() {
  return std::make_unique<NoScaler>();
}
std::unique_ptr<Autoscaler> make_react(double headroom) {
  return std::make_unique<React>(headroom);
}
std::unique_ptr<Autoscaler> make_adapt(double gain, std::size_t max_step) {
  return std::make_unique<Adapt>(gain, max_step);
}
std::unique_ptr<Autoscaler> make_hist(double percentile) {
  return std::make_unique<Hist>(percentile);
}
std::unique_ptr<Autoscaler> make_reg(std::size_t window) {
  return std::make_unique<Reg>(window);
}
std::unique_ptr<Autoscaler> make_conpaas(double alpha, double beta) {
  return std::make_unique<ConPaas>(alpha, beta);
}
std::unique_ptr<Autoscaler> make_plan(sim::SimTime drain_horizon) {
  return std::make_unique<Plan>(drain_horizon);
}
std::unique_ptr<Autoscaler> make_token() { return std::make_unique<Token>(); }
std::unique_ptr<Autoscaler> make_pid(double kp, double ki, double kd) {
  return std::make_unique<Pid>(kp, ki, kd);
}

std::vector<std::string> all_autoscaler_names() {
  return {"react", "adapt", "hist", "reg", "conpaas", "pid", "plan", "token"};
}

std::unique_ptr<Autoscaler> make_autoscaler(const std::string& name) {
  if (name == "none") return make_no_scaler();
  if (name == "react") return make_react();
  if (name == "adapt") return make_adapt();
  if (name == "hist") return make_hist();
  if (name == "reg") return make_reg();
  if (name == "conpaas") return make_conpaas();
  if (name == "pid") return make_pid();
  if (name == "plan") return make_plan();
  if (name == "token") return make_token();
  throw std::invalid_argument("make_autoscaler: unknown " + name);
}

AutoscaleRunResult run_autoscaled(infra::Datacenter& dc,
                                  std::vector<workload::Job> jobs,
                                  std::unique_ptr<Autoscaler> autoscaler,
                                  const AutoscaleRunConfig& config) {
  if (!autoscaler) throw std::invalid_argument("run_autoscaled: null scaler");
  sim::Simulator sim;
  sched::ExecutionEngine engine(sim, dc, sched::make_fcfs(), config.engine);
  sched::ProvisionedPool pool(sim, dc, engine, config.provisioning);
  const std::size_t min_machines = config.provisioning.min_machines;
  pool.start_with(min_machines);

  const double cores_per_machine =
      dc.machine_count() == 0 ? 1.0 : dc.machine(0).capacity().cpu();

  // Mean task cores: estimate from the trace.
  double total_cores = 0.0;
  std::size_t total_tasks = 0;
  for (const auto& j : jobs) {
    for (const auto& t : j.tasks) {
      total_cores += t.demand.cpu();
      ++total_tasks;
    }
  }
  const double mean_task_cores =
      total_tasks == 0 ? 1.0 : total_cores / static_cast<double>(total_tasks);

  engine.submit_all(std::move(jobs));

  // Observability: decision instants + demand/supply/target counter
  // samples into the tracer; tick/scale tallies into the registry.
  obs::Tracer* tracer = config.tracer;
  engine.set_tracer(tracer);
  engine.set_slo(config.slo);
  obs::NameId n_decision{}, n_demand{}, n_supply{}, n_target{};
  if (tracer != nullptr) {
    n_decision = tracer->intern("autoscale.decision");
    n_demand = tracer->intern("autoscale.demand_machines");
    n_supply = tracer->intern("autoscale.supply_machines");
    n_target = tracer->intern("autoscale.target_machines");
  }
  obs::Counter* ctr_ticks = nullptr;
  obs::Counter* ctr_ups = nullptr;
  obs::Counter* ctr_downs = nullptr;
  obs::Gauge* g_target = nullptr;
  if (config.registry != nullptr) {
    ctr_ticks = &config.registry->counter("autoscale.ticks");
    ctr_ups = &config.registry->counter("autoscale.scale_ups");
    ctr_downs = &config.registry->counter("autoscale.scale_downs");
    g_target = &config.registry->gauge("autoscale.target_machines");
  }

  AutoscaleRunResult result;
  result.autoscaler = autoscaler->name();
  metrics::StepSeries demand_machines_series;
  std::vector<double> demand_history;

  sim.schedule_recurring(0, [&]() -> std::optional<sim::SimTime> {
    pool.reap_drained();
    const double demand_m = engine.demand_cores() / cores_per_machine;
    demand_machines_series.append(sim.now(), demand_m);
    demand_history.push_back(demand_m);

    AutoscaleContext ctx;
    ctx.now = sim.now();
    ctx.demand_machines = demand_m;
    ctx.demand_history = &demand_history;
    ctx.supply_machines = pool.active();
    ctx.max_machines = config.max_machines;
    ctx.pending_work_machine_seconds =
        engine.pending_work_core_seconds() / cores_per_machine;
    ctx.eligible_tasks = engine.eligible_within(config.interval);
    ctx.cores_per_machine = cores_per_machine;
    ctx.mean_task_cores = mean_task_cores;

    const std::size_t target = std::clamp(autoscaler->decide(ctx),
                                          min_machines, config.max_machines);
    const std::size_t supply_before = pool.active();
    pool.set_target(target);
    if (tracer != nullptr) {
      tracer->instant(sim.now(), n_decision, 0,
                      static_cast<std::int64_t>(target),
                      static_cast<std::int64_t>(supply_before));
      tracer->counter(sim.now(), n_demand,
                      static_cast<std::int64_t>(std::llround(demand_m)));
      tracer->counter(sim.now(), n_supply,
                      static_cast<std::int64_t>(supply_before));
      tracer->counter(sim.now(), n_target,
                      static_cast<std::int64_t>(target));
    }
    if (ctr_ticks != nullptr) {
      ctr_ticks->add();
      if (target > supply_before) ctr_ups->add();
      if (target < supply_before) ctr_downs->add();
      g_target->set(static_cast<double>(target));
    }
    ++result.ticks;
    if (engine.all_done()) return std::nullopt;
    return config.interval;
  });

  sim.run_until();

  result.sched = sched::summarize_run(engine, dc);
  const sim::SimTime horizon = sim.now();
  if (horizon > 0) {
    result.elasticity = metrics::elasticity_report(
        demand_machines_series, pool.supply_series(), 0, horizon);
    result.elasticity_score = metrics::elasticity_score(result.elasticity);
    result.avg_machines = pool.supply_series().time_average(0, horizon);
  }
  result.cost = pool.cost();
  if (config.slo != nullptr) config.slo->finalize(sim.now());
  // Hand the engine's lifecycle instruments to the caller's registry so
  // one registry holds the whole run's telemetry.
  if (config.registry != nullptr) config.registry->merge(engine.registry());
  return result;
}

}  // namespace mcs::autoscale
