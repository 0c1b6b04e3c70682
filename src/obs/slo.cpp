#include "obs/slo.hpp"

#include <sstream>
#include <stdexcept>

namespace mcs::obs {

namespace {

/// Splits "a:b:c" fields; throws with a position-bearing message.
std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      break;
    }
    out.emplace_back(text.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

double parse_double(const std::string& field, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(field, &used);
    if (used != field.size()) throw std::invalid_argument(field);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(std::string("SLO spec: malformed ") + what +
                                " '" + field + "'");
  }
}

}  // namespace

std::string to_string(const SloSpec& spec) {
  std::ostringstream out;
  out << spec.klass << ":" << spec.threshold_seconds << ":" << spec.target
      << ":" << sim::to_seconds(spec.window) << ":" << spec.burn_threshold;
  return out.str();
}

std::vector<SloSpec> parse_slo_specs(std::string_view text) {
  std::vector<SloSpec> specs;
  if (text.empty()) return specs;
  for (const std::string& item : split(text, ';')) {
    if (item.empty()) continue;
    const auto fields = split(item, ':');
    if (fields.size() < 3 || fields.size() > 5) {
      throw std::invalid_argument(
          "SLO spec: expected CLASS:THRESHOLD_S:TARGET[:WINDOW_S[:BURN]], "
          "got '" + item + "'");
    }
    SloSpec spec;
    spec.klass = fields[0];
    if (spec.klass.empty()) {
      throw std::invalid_argument("SLO spec: empty class in '" + item + "'");
    }
    spec.threshold_seconds = parse_double(fields[1], "threshold");
    if (!(spec.threshold_seconds > 0.0)) {
      throw std::invalid_argument("SLO spec: threshold must be > 0 in '" +
                                  item + "'");
    }
    spec.target = parse_double(fields[2], "target");
    if (!(spec.target > 0.0) || spec.target > 1.0) {
      throw std::invalid_argument("SLO spec: target must be in (0, 1] in '" +
                                  item + "'");
    }
    if (fields.size() >= 4) {
      const double w = parse_double(fields[3], "window");
      if (!(w > 0.0)) {
        throw std::invalid_argument("SLO spec: window must be > 0 in '" +
                                    item + "'");
      }
      spec.window = sim::from_seconds(w);
    }
    if (fields.size() == 5) {
      spec.burn_threshold = parse_double(fields[4], "burn threshold");
      if (!(spec.burn_threshold > 0.0)) {
        throw std::invalid_argument(
            "SLO spec: burn threshold must be > 0 in '" + item + "'");
      }
    }
    for (const SloSpec& existing : specs) {
      if (existing.klass == spec.klass) {
        throw std::invalid_argument(
            "SLO spec: duplicate class '" + spec.klass +
            "' (its registry instruments would alias)");
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

SloTracker::SloTracker(std::vector<SloSpec> specs, Registry& registry,
                       Tracer* tracer)
    : specs_(std::move(specs)), tracer_(tracer) {
  states_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SloSpec& spec = specs_[i];
    State& st = states_[i];
    st.slot_width = spec.window / static_cast<sim::SimTime>(kWindowSlots);
    if (st.slot_width < 1) st.slot_width = 1;
    const std::string prefix = "slo." + spec.klass + ".";
    st.ctr_samples = &registry.counter(prefix + "samples");
    st.ctr_good = &registry.counter(prefix + "good");
    st.ctr_violation_us = &registry.counter(prefix + "violation_us");
    st.ctr_crossings = &registry.counter(prefix + "burn_crossings");
    if (tracer_ != nullptr) {
      st.tn_begin = tracer_->intern(prefix + "violation.begin");
      st.tn_end = tracer_->intern(prefix + "violation.end");
      st.tn_burn = tracer_->intern(prefix + "burn");
    }
  }
}

// mcs-lint: hot
void SloTracker::evaluate(State& st, const SloSpec& spec, sim::SimTime at) {
  // Attainment over the live window; an empty window never violates.
  const bool met =
      st.window_total == 0 ||
      static_cast<double>(st.window_good) >=
          spec.target * static_cast<double>(st.window_total);
  if (!met && !st.violating) {
    st.violating = true;
    st.violation_begin = at;
    if (tracer_ != nullptr) {
      tracer_->instant(at, st.tn_begin, 0,
                       static_cast<std::int64_t>(st.window_good),
                       static_cast<std::int64_t>(st.window_total));
    }
  } else if (met && st.violating) {
    st.violating = false;
    st.ctr_violation_us->add(
        static_cast<std::uint64_t>(at - st.violation_begin));
    if (tracer_ != nullptr) {
      tracer_->instant(at, st.tn_end, 0,
                       static_cast<std::int64_t>(at - st.violation_begin));
    }
  }
  // Burn rate: error-budget consumption relative to what the target
  // allows. bad/total vs (1-target), compared in cross-multiplied integer-
  // free form to avoid dividing by an empty budget.
  const double bad = static_cast<double>(st.window_total - st.window_good);
  const double budget =
      (1.0 - spec.target) * static_cast<double>(st.window_total);
  const bool burning =
      st.window_total > 0 && bad > spec.burn_threshold * budget;
  if (burning && !st.burning) {
    st.ctr_crossings->add();
    if (tracer_ != nullptr) {
      tracer_->instant(at, st.tn_burn, 0, static_cast<std::int64_t>(bad),
                       static_cast<std::int64_t>(st.window_total));
    }
  }
  st.burning = burning;
}

void SloTracker::finalize(sim::SimTime at) {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    if (st.violating) {
      st.violating = false;
      const sim::SimTime begin = st.violation_begin;
      st.ctr_violation_us->add(
          static_cast<std::uint64_t>(at > begin ? at - begin : 0));
      if (tracer_ != nullptr) {
        tracer_->instant(at, st.tn_end, 0,
                         static_cast<std::int64_t>(at - begin));
      }
    }
  }
}

}  // namespace mcs::obs
