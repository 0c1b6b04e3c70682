#include "exp/obs_harness.hpp"

#include <fstream>
#include <ostream>

#include "obs/report.hpp"

namespace mcs::exp {

CellObs::CellObs(const SweepCli& cli) {
  if (cli.trace() || cli.metrics || cli.report() || cli.slo()) {
    tracer_.emplace(kRingEvents);
  }
  if (cli.slo()) slo_specs_ = obs::parse_slo_specs(cli.slo_spec);
}

obs::SloTracker* CellObs::make_slo(obs::Registry& registry) {
  if (slo_specs_.empty()) return nullptr;
  slo_ = std::make_unique<obs::SloTracker>(slo_specs_, registry, tracer());
  return slo_.get();
}

void CellObs::finalize(sim::SimTime at) {
  if (slo_ != nullptr) slo_->finalize(at);
}

ObsCapture CellObs::capture(const obs::Registry* registry, bool exemplar) {
  ObsCapture c;
  if (!tracer_.has_value()) return c;
  c.trace_digest = tracer_->digest();
  if (registry != nullptr) {
    c.registry = std::make_shared<obs::Registry>();
    c.registry->merge(*registry);
  }
  if (exemplar) {
    c.exemplar = std::make_shared<obs::TraceDump>(obs::snapshot(*tracer_));
  }
  return c;
}

void ObsAggregate::fold(const ObsCapture& capture) {
  ++cells_;
  digest_.add_u64(capture.trace_digest);
  if (capture.registry != nullptr) merged_.merge(*capture.registry);
  if (capture.exemplar != nullptr && exemplar_ == nullptr) {
    exemplar_ = capture.exemplar;
  }
}

bool ObsAggregate::report(const SweepCli& cli, std::ostream& out) const {
  if (!cli.trace() && !cli.metrics && !cli.report()) return true;
  bool ok = true;
  if (cli.trace()) {
    if (exemplar_ != nullptr) {
      std::ofstream file(cli.trace_path);
      if (file) {
        obs::write_chrome_trace(file, *exemplar_);
        out << "trace written to " << cli.trace_path << " ("
            << exemplar_->events.size() << " events";
        if (exemplar_->dropped > 0) {
          out << ", " << exemplar_->dropped << " dropped";
        }
        out << ")\n";
      } else {
        out << "trace: cannot write " << cli.trace_path << "\n";
        ok = false;
      }
    }
    out << "trace digest " << metrics::hex16(trace_digest()) << "\n";
  }
  if (cli.metrics) {
    out << "-- metrics (all cells merged) --\n";
    merged_.print(out);
  }
  if (cli.report()) {
    const std::vector<obs::SloSpec> specs =
        cli.slo() ? obs::parse_slo_specs(cli.slo_spec)
                  : std::vector<obs::SloSpec>{};
    obs::ReportInputs inputs;
    inputs.registry = &merged_;
    inputs.slo = &specs;
    inputs.exemplar = exemplar_.get();
    inputs.trace_digest = trace_digest();
    inputs.has_trace_digest = true;
    inputs.cells = cells_;
    std::ofstream file(cli.report_path);
    if (file) {
      obs::write_report_json(file, inputs);
      out << "report written to " << cli.report_path << " (" << cells_
          << " cells)\n";
    } else {
      out << "report: cannot write " << cli.report_path << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace mcs::exp
