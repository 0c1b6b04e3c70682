// Shared observability rider for the exp_*/fig* bench harness.
//
// Gives every sweep binary the same `--trace FILE` / `--metrics` behavior
// with three pieces:
//
//   CellObs   — constructed inside the cell function; owns the per-cell
//               obs::Tracer (per-cell rings are this codebase's "per
//               thread" rings: each sweep cell is a single-threaded
//               Simulator, so the ring is race-free and a pure function
//               of the cell seed). Attach via engine.set_tracer(
//               cellobs.tracer()) — nullptr when observability is off.
//   ObsCapture— the cell's serializable observation result: the cell's
//               trace digest, a registry snapshot, and (exemplar cell
//               only) the full trace dump.
//   ObsAggregate — folds captures **in flat grid order** (same contract
//               as metrics::Accumulator / Digest merging), then report()
//               writes the exemplar's Chrome trace_event JSON to
//               `--trace FILE`, prints `trace digest <16-hex>` over all
//               cells (the line the gate.exp_* ctests diff across
//               MCS_THREADS=1 vs 8), and prints the merged
//               instrument registry under `--metrics`.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <vector>

#include "exp/sweep.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace mcs::exp {

/// Per-cell observability state. Alive for the duration of one cell run.
class CellObs {
 public:
  /// Tracing/metrics/reporting/SLO activate when the CLI asked for any of
  /// them.
  explicit CellObs(const SweepCli& cli);

  /// The cell tracer, or nullptr when observability is off — pass
  /// straight to ExecutionEngine::set_tracer / attach_observability.
  [[nodiscard]] obs::Tracer* tracer() {
    return tracer_.has_value() ? &*tracer_ : nullptr;
  }
  [[nodiscard]] bool enabled() const { return tracer_.has_value(); }

  /// Builds the cell's SLO tracker over `registry` (its counters land
  /// there) when the CLI carried `--slo`; nullptr otherwise. Pass the
  /// result to ExecutionEngine::set_slo. Owned by this CellObs.
  [[nodiscard]] obs::SloTracker* make_slo(obs::Registry& registry);

  /// Closes open SLO violation intervals at sim time `at` — call once,
  /// with the cell's final sim time, before capture(). No-op without SLO.
  void finalize(sim::SimTime at);

  /// Captures the cell's observation result. `registry` is typically
  /// &engine.registry(); may be nullptr. `exemplar` cells (flat index 0:
  /// scenario 0, rep 0) keep the full dump for the --trace file.
  struct ObsCapture capture(const obs::Registry* registry, bool exemplar);

 private:
  /// Events the per-cell ring holds (flight-recorder overwrite beyond).
  static constexpr std::size_t kRingEvents = std::size_t{1} << 16;

  std::optional<obs::Tracer> tracer_;
  std::vector<obs::SloSpec> slo_specs_;
  std::unique_ptr<obs::SloTracker> slo_;
};

/// Serializable per-cell observation result (cheap to move through
/// run_sweep's result vector; empty/null when observability is off).
struct ObsCapture {
  std::uint64_t trace_digest = 0;
  std::shared_ptr<obs::Registry> registry;   ///< merged cell instruments
  std::shared_ptr<obs::TraceDump> exemplar;  ///< flat-index-0 cell only
};

/// Flat-grid-order fold + end-of-run reporting.
class ObsAggregate {
 public:
  /// Fold captures in flat grid order (cell 0, 1, 2, ...).
  void fold(const ObsCapture& capture);

  /// Writes the exemplar Chrome trace to cli.trace_path (when tracing),
  /// prints `trace digest <16-hex>` to `out`, prints the merged registry
  /// when cli.metrics, and writes the mcs-report-v1 JSON to
  /// cli.report_path when reporting. No-op when observability is off.
  /// Returns false if an output file could not be written.
  bool report(const SweepCli& cli, std::ostream& out) const;

  /// Digest over all cells' trace digests (flat order).
  [[nodiscard]] std::uint64_t trace_digest() const {
    return digest_.value();
  }
  [[nodiscard]] const obs::Registry& registry() const { return merged_; }
  [[nodiscard]] std::uint64_t cells() const { return cells_; }

 private:
  metrics::Digest digest_;
  obs::Registry merged_;
  std::shared_ptr<obs::TraceDump> exemplar_;
  std::uint64_t cells_ = 0;
};

}  // namespace mcs::exp
