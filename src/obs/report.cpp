#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace mcs::obs {

QuantileEstimate histogram_quantile(const metrics::Histogram& h, double q) {
  QuantileEstimate est;
  const std::size_t b = h.quantile_bucket(q);
  if (b == metrics::Histogram::kBuckets) return est;  // empty
  est.value = h.quantile(q);
  const double lo = metrics::Histogram::bucket_floor(b);
  const double hi = b + 1 < metrics::Histogram::kBuckets
                        ? metrics::Histogram::bucket_floor(b + 1)
                        : h.max();
  // The true quantile is inside the bucket *and* inside [min, max].
  est.lo = std::max(lo, h.min());
  est.hi = std::min(hi, h.max());
  if (est.hi < est.lo) est.hi = est.lo;
  return est;
}

std::vector<CostRow> fold_costs(const TraceDump& dump) {
  std::vector<std::uint64_t> events(dump.names.size(), 0);
  std::vector<std::uint64_t> span_us(dump.names.size(), 0);
  for (const TraceEvent& e : dump.events) {
    if (e.name >= dump.names.size()) continue;  // defensive: foreign dump
    ++events[e.name];
    if (e.phase == Phase::kComplete && e.dur > 0) {
      span_us[e.name] += static_cast<std::uint64_t>(e.dur);
    }
  }
  std::vector<CostRow> rows;
  for (std::size_t i = 0; i < dump.names.size(); ++i) {
    if (events[i] == 0) continue;
    rows.push_back(CostRow{dump.names[i], events[i], span_us[i]});
  }
  return rows;
}

std::vector<SloRow> slo_rows(const std::vector<SloSpec>& specs,
                             const Registry& registry) {
  std::vector<SloRow> rows;
  rows.reserve(specs.size());
  for (const SloSpec& spec : specs) {
    SloRow row;
    row.klass = spec.klass;
    row.threshold_seconds = spec.threshold_seconds;
    row.target = spec.target;
    const std::string prefix = "slo." + spec.klass + ".";
    if (const Counter* c = registry.find_counter(prefix + "samples")) {
      row.samples = c->value();
    }
    if (const Counter* c = registry.find_counter(prefix + "good")) {
      row.good = c->value();
    }
    if (const Counter* c = registry.find_counter(prefix + "violation_us")) {
      row.violation_minutes =
          static_cast<double>(c->value()) / (60.0 * 1'000'000.0);
    }
    if (const Counter* c = registry.find_counter(prefix + "burn_crossings")) {
      row.burn_crossings = c->value();
    }
    row.attainment = row.samples == 0 ? 1.0
                                      : static_cast<double>(row.good) /
                                            static_cast<double>(row.samples);
    row.met = row.attainment >= row.target;
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

/// Round-trip-precision double; non-finite values become null (JSON has
/// no inf/nan literal).
void json_double(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

void json_quantile(std::ostream& out, const char* key,
                   const QuantileEstimate& est) {
  out << '"' << key << "\":{\"value\":";
  json_double(out, est.value);
  out << ",\"lo\":";
  json_double(out, est.lo);
  out << ",\"hi\":";
  json_double(out, est.hi);
  out << '}';
}

constexpr double kQuantiles[] = {0.5, 0.95, 0.99, 0.999};
constexpr const char* kQuantileKeys[] = {"p50", "p95", "p99", "p999"};

}  // namespace

void write_report_json(std::ostream& out, const ReportInputs& in) {
  out << "{\"schema\":\"mcs-report-v1\"";
  out << ",\"cells\":" << in.cells;
  out << ",\"instruments\":[";
  if (in.registry != nullptr) {
    for (std::size_t i = 0; i < in.registry->size(); ++i) {
      const Registry::InstrumentView v = in.registry->view(i);
      if (i != 0) out << ',';
      out << "{\"name\":";
      write_json_string(out, v.name);
      out << ",\"kind\":\"" << to_string(v.kind) << '"';
      switch (v.kind) {
        case InstrumentKind::kCounter:
          out << ",\"value\":" << v.counter->value();
          break;
        case InstrumentKind::kGauge:
          out << ",\"value\":";
          json_double(out, v.gauge->value());
          out << ",\"max\":";
          json_double(out, v.gauge->max());
          break;
        case InstrumentKind::kHistogram: {
          const metrics::Histogram& h = *v.histogram;
          out << ",\"count\":" << h.count();
          out << ",\"mean\":";
          json_double(out, h.mean());
          out << ",\"min\":";
          json_double(out, h.min());
          out << ",\"max\":";
          json_double(out, h.max());
          for (std::size_t qi = 0; qi < 4; ++qi) {
            out << ',';
            json_quantile(out, kQuantileKeys[qi],
                          histogram_quantile(h, kQuantiles[qi]));
          }
          break;
        }
      }
      out << '}';
    }
  }
  out << ']';
  if (in.slo != nullptr && !in.slo->empty() && in.registry != nullptr) {
    const std::vector<SloRow> rows = slo_rows(*in.slo, *in.registry);
    out << ",\"slo\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SloRow& r = rows[i];
      if (i != 0) out << ',';
      out << "{\"class\":";
      write_json_string(out, r.klass);
      out << ",\"threshold_s\":";
      json_double(out, r.threshold_seconds);
      out << ",\"target\":";
      json_double(out, r.target);
      out << ",\"samples\":" << r.samples;
      out << ",\"good\":" << r.good;
      out << ",\"attainment\":";
      json_double(out, r.attainment);
      out << ",\"violation_minutes\":";
      json_double(out, r.violation_minutes);
      out << ",\"burn_crossings\":" << r.burn_crossings;
      out << ",\"met\":" << (r.met ? "true" : "false");
      out << '}';
    }
    out << ']';
  }
  if (in.exemplar != nullptr) {
    const std::vector<CostRow> rows = fold_costs(*in.exemplar);
    out << ",\"costs\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const CostRow& r = rows[i];
      if (i != 0) out << ',';
      out << "{\"name\":";
      write_json_string(out, r.name);
      out << ",\"events\":" << r.events;
      out << ",\"span_us\":" << r.span_us;
      out << '}';
    }
    out << "],\"trace_dropped\":" << in.exemplar->dropped
        << ",\"trace_total\":" << in.exemplar->total;
  }
  if (in.has_trace_digest) {
    out << ",\"trace_digest\":\"" << metrics::hex16(in.trace_digest) << '"';
  }
  out << "}\n";
}

}  // namespace mcs::obs
