// Ablation A2 — FaaS keep-alive (Fig. 5 Function Management design knob):
// sweep the keep-alive window against a bursty arrival pattern and read
// the classic trade-off curve — short windows minimize resident memory but
// pay cold starts on every burst; long windows amortize cold starts at the
// price of idle memory-hours.
#include <iostream>
#include <optional>

#include "faas/platform.hpp"
#include "metrics/report.hpp"
#include "sim/arrival.hpp"

int main() {
  using namespace mcs;
  metrics::print_banner(std::cout,
                        "A2 — FaaS keep-alive: cold starts vs resident memory");
  const std::uint64_t seed = 102;
  metrics::print_kv(std::cout, "seed", std::to_string(seed));
  metrics::print_kv(std::cout, "arrivals",
                    "bursts every ~10 min, 3 h horizon, 512 MB function");

  metrics::Table table({"keep-alive", "invocations", "cold starts",
                        "cold fraction", "p99 latency [s]",
                        "mean resident [MB]", "memory [MB-hours]"});
  for (sim::SimTime keep_alive :
       {sim::SimTime{0}, 30 * sim::kSecond, 2 * sim::kMinute,
        10 * sim::kMinute, sim::kHour}) {
    infra::Datacenter dc("a2", "eu");
    dc.add_uniform_racks(1, 4, infra::ResourceVector{8, 16, 0}, 1.0);
    sim::Simulator sim;
    faas::FaasPlatform::Config config;
    config.keep_alive = keep_alive;
    faas::FaasPlatform platform(sim, dc, config, sim::Rng(seed));
    faas::FunctionSpec spec;
    spec.name = "f";
    spec.memory_mb = 512.0;
    spec.mean_exec_seconds = 0.2;
    spec.cv_exec = 0.2;
    spec.cold_start_seconds = 1.2;
    platform.deploy(spec);

    // Bursty invocations: MMPP with ~10-minute quiet periods.
    sim::Rng arrival_rng(seed + 1);
    sim::MmppProcess arrivals(0.01, 2.0, 600.0, 30.0);
    sim.schedule_recurring(0, [&]() -> std::optional<sim::SimTime> {
      platform.invoke("f", {});
      if (sim.now() >= 3 * sim::kHour) return std::nullopt;
      return arrivals.next_gap(arrival_rng);
    });

    // Sample resident memory every 30 s.
    metrics::Accumulator resident;
    sim.schedule_recurring(0, [&]() -> std::optional<sim::SimTime> {
      resident.add(platform.memory_in_use_mb());
      if (sim.now() >= 3 * sim::kHour) return std::nullopt;
      return 30 * sim::kSecond;
    });
    sim.run_until();

    const auto& st = platform.stats("f");
    const double cold_fraction =
        st.invocations == 0
            ? 0.0
            : static_cast<double>(st.cold_starts) /
                  static_cast<double>(st.invocations);
    table.add_row(
        {keep_alive == 0 ? "none"
                         : metrics::Table::num(sim::to_seconds(keep_alive), 0) +
                               " s",
         std::to_string(st.invocations), std::to_string(st.cold_starts),
         metrics::Table::pct(cold_fraction),
         metrics::Table::num(st.latency.quantile(0.99), 2),
         metrics::Table::num(resident.mean(), 0),
         metrics::Table::num(resident.mean() * 3.0, 0)});
  }
  table.print(std::cout);
  std::cout << "\nDesign readout: the knee sits near the burst inter-arrival\n"
               "time — keep-alive shorter than the quiet gap re-pays cold\n"
               "starts every burst; much longer only adds memory-hours. This\n"
               "is the §6.5 isolation/performance/cost triangle in one knob.\n";
  return 0;
}
