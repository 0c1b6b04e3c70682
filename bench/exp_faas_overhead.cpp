// Experiment E9 — serverless composition overhead (§6.5).
//
// The paper's qualitative claim: fine-grained function composition buys
// elasticity and per-invocation billing, but meta-scheduling hops and
// cold starts tax latency relative to a monolith. Measured: the same
// 5-stage pipeline as (a) one monolithic function, (b) a sequence of 5
// functions, (c) a partially parallel composition — across request rates.
#include <iostream>
#include <optional>

#include "faas/composition.hpp"
#include "metrics/report.hpp"
#include "metrics/stats.hpp"
#include "sim/arrival.hpp"

namespace {

using namespace mcs;

struct Variant {
  std::string name;
  faas::Composition workflow;
};

faas::FunctionSpec fn(const char* name, double exec_s, double mem_mb) {
  faas::FunctionSpec spec;
  spec.name = name;
  spec.mean_exec_seconds = exec_s;
  spec.cv_exec = 0.2;
  spec.memory_mb = mem_mb;
  spec.cold_start_seconds = 0.8;
  return spec;
}

struct Outcome {
  double median = 0.0;
  double p99 = 0.0;
  std::size_t cold = 0;
};

Outcome run_variant(const faas::Composition& wf, double rate_per_second,
                    std::uint64_t seed) {
  infra::Datacenter dc("e9-dc", "eu");
  dc.add_uniform_racks(1, 8, infra::ResourceVector{16.0, 32.0, 0.0}, 1.0);
  sim::Simulator sim;
  faas::FaasPlatform platform(sim, dc, {}, sim::Rng(seed));
  // The five stages (and the monolith equivalent = sum of stage times).
  platform.deploy(fn("s1", 0.04, 128));
  platform.deploy(fn("s2", 0.10, 256));
  platform.deploy(fn("s3", 0.10, 256));
  platform.deploy(fn("s4", 0.10, 256));
  platform.deploy(fn("s5", 0.06, 128));
  platform.deploy(fn("monolith", 0.40, 1024));

  faas::CompositionEngine engine(sim, platform);
  metrics::Accumulator latency;
  std::size_t cold_total = 0;
  sim::Rng arrival_rng(seed + 1);
  sim::PoissonProcess arrivals(rate_per_second);
  sim.schedule_recurring(0, [&]() -> std::optional<sim::SimTime> {
    engine.run(wf, [&](const faas::WorkflowResult& r) {
      latency.add(r.latency_seconds);
      cold_total += r.cold_starts;
    });
    if (sim.now() >= 20 * sim::kMinute) return std::nullopt;
    return arrivals.next_gap(arrival_rng);
  });
  sim.run_until();

  Outcome out;
  out.median = latency.median();
  out.p99 = latency.quantile(0.99);
  out.cold = cold_total;
  return out;
}

}  // namespace

int main() {
  metrics::print_banner(std::cout,
                        "E9 — Monolith vs FaaS composition overhead (§6.5)");
  const std::uint64_t seed = 65;
  metrics::print_kv(std::cout, "seed", std::to_string(seed));
  metrics::print_kv(std::cout, "pipeline compute", "0.40 s across 5 stages");
  metrics::print_kv(std::cout, "meta-scheduling", "5 ms per hop");

  const Variant variants[] = {
      {"monolith (1 hop)", faas::Composition::invoke("monolith")},
      {"sequence of 5",
       faas::Composition::sequence(
           {faas::Composition::invoke("s1"), faas::Composition::invoke("s2"),
            faas::Composition::invoke("s3"), faas::Composition::invoke("s4"),
            faas::Composition::invoke("s5")})},
      {"fan-out middle (3 deep)",
       faas::Composition::sequence(
           {faas::Composition::invoke("s1"),
            faas::Composition::parallel({faas::Composition::invoke("s2"),
                                         faas::Composition::invoke("s3"),
                                         faas::Composition::invoke("s4")}),
            faas::Composition::invoke("s5")})},
  };

  for (double rate : {0.5, 4.0, 20.0}) {
    metrics::print_banner(
        std::cout, "Request rate " + metrics::Table::num(rate, 1) + "/s");
    metrics::Table table({"variant", "hops", "median [s]", "p99 [s]",
                          "cold starts"});
    for (const Variant& v : variants) {
      const Outcome o = run_variant(v.workflow, rate, seed);
      table.add_row({v.name, std::to_string(v.workflow.invocation_count()),
                     metrics::Table::num(o.median, 3),
                     metrics::Table::num(o.p99, 3), std::to_string(o.cold)});
    }
    table.print(std::cout);
  }
  std::cout << "\nThe §6.5 shape: at low rates the composed pipelines pay\n"
               "per-hop meta-scheduling plus multiple cold starts (worst\n"
               "p99); at high rates instances stay warm and the parallel\n"
               "composition beats the monolith on median latency — the\n"
               "elasticity-vs-overhead trade the FaaS challenges target.\n";
  return 0;
}
