#include "obs/registry.hpp"

#include <ostream>
#include <stdexcept>

namespace mcs::obs {

const char* to_string(InstrumentKind k) {
  switch (k) {
    case InstrumentKind::kCounter: return "counter";
    case InstrumentKind::kGauge: return "gauge";
    case InstrumentKind::kHistogram: return "histogram";
  }
  return "?";
}

const Registry::Slot* Registry::find(std::string_view name) const {
  for (const Slot& s : order_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace {
[[noreturn]] void kind_mismatch(std::string_view name, InstrumentKind want,
                                InstrumentKind have) {
  throw std::logic_error("Registry: instrument '" + std::string(name) +
                         "' is a " + std::string(to_string(have)) +
                         ", requested as " + std::string(to_string(want)));
}
}  // namespace

Counter& Registry::counter(std::string_view name) {
  if (const Slot* s = find(name)) {
    if (s->kind != InstrumentKind::kCounter) {
      kind_mismatch(name, InstrumentKind::kCounter, s->kind);
    }
    return counters_[s->index];
  }
  order_.push_back(
      Slot{std::string(name), InstrumentKind::kCounter, counters_.size()});
  return counters_.emplace_back();
}

Gauge& Registry::gauge(std::string_view name) {
  if (const Slot* s = find(name)) {
    if (s->kind != InstrumentKind::kGauge) {
      kind_mismatch(name, InstrumentKind::kGauge, s->kind);
    }
    return gauges_[s->index];
  }
  order_.push_back(
      Slot{std::string(name), InstrumentKind::kGauge, gauges_.size()});
  return gauges_.emplace_back();
}

metrics::Histogram& Registry::histogram(std::string_view name) {
  if (const Slot* s = find(name)) {
    if (s->kind != InstrumentKind::kHistogram) {
      kind_mismatch(name, InstrumentKind::kHistogram, s->kind);
    }
    return histograms_[s->index];
  }
  order_.push_back(
      Slot{std::string(name), InstrumentKind::kHistogram, histograms_.size()});
  return histograms_.emplace_back();
}

const Counter* Registry::find_counter(std::string_view name) const {
  const Slot* s = find(name);
  return s != nullptr && s->kind == InstrumentKind::kCounter
             ? &counters_[s->index]
             : nullptr;
}

// mcs-lint: allow(R1) — the span tests (tests/engine_fault_test.cpp,
// tests/obs_test.cpp) read engine histograms by name through it.
const metrics::Histogram* Registry::find_histogram(
    std::string_view name) const {
  const Slot* s = find(name);
  return s != nullptr && s->kind == InstrumentKind::kHistogram
             ? &histograms_[s->index]
             : nullptr;
}

Registry::InstrumentView Registry::view(std::size_t i) const {
  const Slot& s = order_[i];
  InstrumentView v;
  v.name = s.name;
  v.kind = s.kind;
  switch (s.kind) {
    case InstrumentKind::kCounter: v.counter = &counters_[s.index]; break;
    case InstrumentKind::kGauge: v.gauge = &gauges_[s.index]; break;
    case InstrumentKind::kHistogram:
      v.histogram = &histograms_[s.index];
      break;
  }
  return v;
}

void Registry::merge(const Registry& other) {
  for (const Slot& s : other.order_) {
    switch (s.kind) {
      case InstrumentKind::kCounter:
        counter(s.name).merge(other.counters_[s.index]);
        break;
      case InstrumentKind::kGauge:
        gauge(s.name).merge(other.gauges_[s.index]);
        break;
      case InstrumentKind::kHistogram:
        histogram(s.name).merge(other.histograms_[s.index]);
        break;
    }
  }
}

void Registry::fold_digest(metrics::Digest& d) const {
  d.add_u64(order_.size());
  for (const Slot& s : order_) {
    d.add_bytes(s.name.data(), s.name.size());
    d.add_u64(static_cast<std::uint64_t>(s.kind));
    switch (s.kind) {
      case InstrumentKind::kCounter:
        d.add_u64(counters_[s.index].value());
        break;
      case InstrumentKind::kGauge: {
        const Gauge& g = gauges_[s.index];
        d.add_u64(g.seen() ? 1 : 0);
        d.add_double(g.value());
        d.add_double(g.max());
        break;
      }
      case InstrumentKind::kHistogram: {
        const metrics::Histogram& h = histograms_[s.index];
        d.add_u64(h.count());
        d.add_double(h.sum());
        for (std::size_t b = 0; b < metrics::Histogram::kBuckets; ++b) {
          d.add_u64(h.bin(b));
        }
        break;
      }
    }
  }
}

void Registry::print(std::ostream& out) const {
  for (const Slot& s : order_) {
    switch (s.kind) {
      case InstrumentKind::kCounter:
        out << s.name << " = " << counters_[s.index].value() << "\n";
        break;
      case InstrumentKind::kGauge: {
        const Gauge& g = gauges_[s.index];
        out << s.name << " = " << g.value() << " (max " << g.max() << ")\n";
        break;
      }
      case InstrumentKind::kHistogram: {
        const metrics::Histogram& h = histograms_[s.index];
        out << s.name << " = count " << h.count() << ", mean " << h.mean()
            << ", p50 " << h.quantile(0.5) << ", p99 " << h.quantile(0.99)
            << ", max " << h.max() << "\n";
        break;
      }
    }
  }
}

}  // namespace mcs::obs
