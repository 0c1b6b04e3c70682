#include "sched/datacenter_stack.hpp"

#include <optional>

namespace mcs::sched {

void OperationsService::monitor(const std::string& gauge,
                                core::UniqueFunction<double()> probe,
                                sim::SimTime interval, sim::SimTime until) {
  if (interval <= 0) throw std::invalid_argument("monitor: interval <= 0");
  metrics::StepSeries* series = &series_[gauge];  // map nodes never move
  sim_.schedule_recurring(
      0,
      [this, series, probe = std::move(probe), interval,
       until]() -> std::optional<sim::SimTime> {
        series->append(sim_.now(), probe());
        ++samples_;
        if (sim::saturating_add(sim_.now(), interval) > until) {
          return std::nullopt;
        }
        return interval;
      });
}

void OperationsService::log(const std::string& line) {
  (void)line;  // content is not retained; volume is what the bench reports
  ++log_count_;
}

const metrics::StepSeries* OperationsService::series(
    const std::string& gauge) const {
  auto it = series_.find(gauge);
  return it == series_.end() ? nullptr : &it->second;
}

DatacenterStack::DatacenterStack(sim::Simulator& sim, infra::Datacenter& dc,
                                 std::unique_ptr<AllocationPolicy> policy,
                                 Config config)
    : sim_(sim), dc_(dc) {
  ops_ = std::make_unique<OperationsService>(sim_);
  engine_ = std::make_unique<ExecutionEngine>(sim_, dc_, std::move(policy),
                                              config.engine);
  pool_ = std::make_unique<ProvisionedPool>(sim_, dc_, *engine_,
                                            config.provisioning);
  pool_->start_with(config.initial_machines);
}

void DatacenterStack::submit(workload::Job job) {
  ++frontend_ops_;
  ops_->log("frontend: accepted job " + std::to_string(job.id));
  engine_->submit(std::move(job));
}

void DatacenterStack::resize_pool(std::size_t machines) {
  ++resources_ops_;
  ops_->log("resources: target set to " + std::to_string(machines));
  pool_->set_target(machines);
}

void DatacenterStack::start_monitoring(sim::SimTime until) {
  ++devops_ops_;
  ops_->monitor("utilization",
                [this] {
                  const double supply = engine_->supply_cores();
                  return supply <= 0.0 ? 0.0
                                       : engine_->demand_cores() / supply;
                },
                kMonitorInterval, until);
  ops_->monitor("power_watts", [this] { return dc_.power_watts(); },
                kMonitorInterval, until);
}

std::vector<LayerActivity> DatacenterStack::activity() const {
  return {
      {"Front-end", "application-level functionality", frontend_ops_},
      {"Back-end", "task/resource management for the application",
       engine_->jobs_completed()},
      {"Resources", "task/resource management for the operator",
       resources_ops_},
      {"Operations Service", "distributed-OS basic services",
       ops_->samples_taken()},
      {"Infrastructure", "physical and virtual resources",
       static_cast<std::uint64_t>(dc_.machine_count())},
      {"DevOps", "monitoring, logging, benchmarking",
       ops_->log_lines()},
  };
}

}  // namespace mcs::sched
