// Sweep-scale telemetry reports: fold merged registries + SLO state +
// trace cost attribution into percentile tables and a stable-key JSON
// document.
//
// The paper's observation pillar (§3.3) asks for comparable, repeatable
// measurement across experiments; this module is the single rendering
// path from the deterministic in-memory state (obs::Registry merged in
// flat grid order, SloTracker counters, a TraceDump exemplar) to
// write_report_json's "mcs-report-v1": keys in a fixed order, arrays in
// registration/name-table order, doubles at max round-trip precision —
// byte-identical across runs and thread counts, so CI diffs two reports
// with `cmp`. tools/mcs_report renders the human tables (per-histogram
// p50/p95/p99/p99.9 with bucket-resolution error bounds, SLO attainment +
// violation minutes, per-event-type cost attribution) from that JSON, and
// `mcs_report --diff` explains *what* moved between PRs.
//
// Quantiles come from metrics::Histogram's log2 bins, so every estimate
// carries the bucket's [lo, hi) bounds: the true quantile provably lies
// inside, and reports never pretend to more resolution than the bins hold.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "metrics/stats.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/slo.hpp"

namespace mcs::obs {

/// A bucket-resolution quantile: `value` is the geometric-midpoint point
/// estimate (what Histogram::quantile returns); the true quantile lies in
/// [lo, hi] — the holding bucket's bounds clamped to the recorded
/// min/max. All zero for an empty histogram.
struct QuantileEstimate {
  double value = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Quantile with error bounds from the log2 bins, q in [0,1].
[[nodiscard]] QuantileEstimate histogram_quantile(const metrics::Histogram& h,
                                                  double q);

/// Per-event-name cost attribution folded from a trace dump: how many
/// ring events each name produced and how much simulated time its
/// complete spans covered. This is the one fold both `mcs_trace --stats`
/// and the report's cost table use.
struct CostRow {
  std::string name;
  std::uint64_t events = 0;
  std::uint64_t span_us = 0;  ///< summed kComplete durations
};

/// Rows in name-table order; names with zero retained events are omitted.
[[nodiscard]] std::vector<CostRow> fold_costs(const TraceDump& dump);

/// One SLO objective's outcome, read back from the registry counters a
/// SloTracker maintained (slo.<class>.samples/good/violation_us/
/// burn_crossings).
struct SloRow {
  std::string klass;
  double threshold_seconds = 0.0;
  double target = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t good = 0;
  double attainment = 1.0;  ///< good/samples over the whole run; 1 if empty
  double violation_minutes = 0.0;
  std::uint64_t burn_crossings = 0;
  bool met = true;  ///< attainment >= target
};

/// One row per spec, in spec order. Specs whose counters are absent from
/// the registry (SLO engine never attached) report zero samples.
[[nodiscard]] std::vector<SloRow> slo_rows(const std::vector<SloSpec>& specs,
                                           const Registry& registry);

/// Everything a report renders. All pointers are borrowed and may be
/// null/empty: a report without SLO specs has no slo section, one without
/// a trace exemplar has no cost table.
struct ReportInputs {
  const Registry* registry = nullptr;
  const std::vector<SloSpec>* slo = nullptr;
  const TraceDump* exemplar = nullptr;  ///< cost-attribution source
  std::uint64_t trace_digest = 0;
  bool has_trace_digest = false;
  std::uint64_t cells = 0;  ///< sweep cells folded into `registry`
};

/// Stable-key JSON ("mcs-report-v1"): fixed key order, arrays in
/// registration/name-table order, doubles at round-trip precision —
/// byte-identical for identical inputs.
void write_report_json(std::ostream& out, const ReportInputs& in);

}  // namespace mcs::obs
