// Deterministic SLO engine: declarative latency objectives evaluated over
// sim-time sliding windows.
//
// The paper's maturity model (§3.3, C13) asks for *continuous, comparable*
// measurement of user-facing behavior — not throughput counters but "did
// the ecosystem meet its promise, and for how many minutes did it not".
// An SloSpec declares the promise per workload class (latency threshold +
// target fraction); SloTracker evaluates it over a sliding sim-time window
// as observations arrive from ordinary sim events (job completions), so
// the whole evaluation is a pure function of the scenario seed and digests
// stay bit-identical across MCS_THREADS=1 vs 8.
//
// State lives in the caller's obs::Registry as ordinary counters
// (slo.<class>.samples/good/violation_us/burn_crossings), so SLO results
// ride the existing flat-grid-order merge, print under --metrics, fold
// into fuzz seed digests, and need no new serialization. Threshold
// crossings (violation begin/end, burn-rate alerts) are stamped into the
// trace ring as instant events — the flight recorder shows *when* the SLO
// started burning, not just the final tally.
//
// Hot-path contract (DESIGN.md §11): observe() touches only fixed-size
// window slots and cached counter pointers — no allocation, legal from
// `// mcs-lint: hot` call chains. All window bookkeeping is integer
// arithmetic on microsecond sim time; no floating-point state accumulates
// across observations except through the registry counters.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace mcs::obs {

/// One declarative latency objective: "fraction `target` of class `klass`
/// jobs finish within `threshold_seconds`, judged over a sliding window".
struct SloSpec {
  /// Workload class the objective applies to ("bot", "workflow", or "all"
  /// for every class). The engine maps classes to spec indices at attach.
  std::string klass = "all";
  /// Latency threshold in seconds; a sample is "good" iff latency <= this.
  double threshold_seconds = 60.0;
  /// Target good fraction in (0, 1]; attainment below this is a violation.
  double target = 0.95;
  /// Sliding evaluation window in sim time.
  sim::SimTime window = 5 * sim::kMinute;
  /// Burn-rate alert threshold: the error budget consumed per window,
  /// relative to the budget the target allows (1.0 = exactly on budget).
  /// An upward crossing emits a trace instant + bumps the crossing counter.
  double burn_threshold = 2.0;
};

/// Renders a spec back to the parse format below (diagnostics, reports).
[[nodiscard]] std::string to_string(const SloSpec& spec);

/// Parses a ';'-separated list of specs, each
///   CLASS:THRESHOLD_S:TARGET[:WINDOW_S[:BURN]]
/// e.g. "bot:60:0.95:300;workflow:600:0.9". Duplicate classes are
/// rejected (their registry instruments would alias). Throws
/// std::invalid_argument on malformed input; empty text -> empty list.
[[nodiscard]] std::vector<SloSpec> parse_slo_specs(std::string_view text);

/// Evaluates a set of SloSpecs over sliding sim-time windows.
///
/// Construction registers four counters per spec in `registry` and
/// interns trace names in `tracer` (both may be kept by the caller;
/// tracer may be null). observe() is allocation-free; finalize() closes
/// any open violation interval at the end of the run (call it once, with
/// the final sim time, before capturing the registry).
class SloTracker {
 public:
  SloTracker(std::vector<SloSpec> specs, Registry& registry, Tracer* tracer);

  SloTracker(const SloTracker&) = delete;
  SloTracker& operator=(const SloTracker&) = delete;

  [[nodiscard]] const std::vector<SloSpec>& specs() const { return specs_; }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

  /// Feeds one latency sample (seconds; +infinity for abandoned jobs —
  /// never good) to spec `slo` at sim time `at`. Observation times must be
  /// nondecreasing (sim time is). Allocation-free.
  // mcs-lint: hot
  void observe(std::size_t slo, sim::SimTime at, double latency_seconds) {
    State& st = states_[slo];
    advance_window(st, at);
    const bool good = latency_seconds <= specs_[slo].threshold_seconds;
    const std::size_t slot =
        static_cast<std::size_t>(st.head_slot) % kWindowSlots;
    ++st.total[slot];
    st.window_total += 1;
    if (good) {
      ++st.good[slot];
      st.window_good += 1;
      st.ctr_good->add();
    }
    st.ctr_samples->add();
    evaluate(st, specs_[slo], at);
  }

  /// Closes open violation intervals at sim time `at` (end of run). The
  /// violation_us counters are only complete after this call.
  void finalize(sim::SimTime at);

  /// True while spec `slo`'s window attainment is below target.
  [[nodiscard]] bool violating(std::size_t slo) const {
    return states_[slo].violating;
  }

 private:
  static constexpr std::size_t kWindowSlots = 64;

  /// Per-spec sliding window + cached instruments. All record-path state
  /// is fixed-size; the struct is built once at construction.
  struct State {
    std::uint64_t good[kWindowSlots] = {};
    std::uint64_t total[kWindowSlots] = {};
    std::uint64_t window_good = 0;   ///< sum of live good[] slots
    std::uint64_t window_total = 0;  ///< sum of live total[] slots
    std::int64_t head_slot = 0;      ///< absolute index of the newest slot
    sim::SimTime slot_width = 1;     ///< window / kWindowSlots, >= 1
    bool violating = false;
    bool burning = false;
    sim::SimTime violation_begin = 0;
    Counter* ctr_samples = nullptr;
    Counter* ctr_good = nullptr;
    Counter* ctr_violation_us = nullptr;
    Counter* ctr_crossings = nullptr;
    NameId tn_begin = 0;
    NameId tn_end = 0;
    NameId tn_burn = 0;
  };

  /// Rotates the window forward to cover `at`, evicting expired slots.
  // mcs-lint: hot
  void advance_window(State& st, sim::SimTime at) {
    const std::int64_t target_slot = at / st.slot_width;
    if (target_slot <= st.head_slot) return;
    std::int64_t steps = target_slot - st.head_slot;
    if (steps > static_cast<std::int64_t>(kWindowSlots)) {
      steps = static_cast<std::int64_t>(kWindowSlots);
    }
    for (std::int64_t i = 0; i < steps; ++i) {
      const std::size_t slot = static_cast<std::size_t>(
          (st.head_slot + 1 + i) % static_cast<std::int64_t>(kWindowSlots));
      st.window_good -= st.good[slot];
      st.window_total -= st.total[slot];
      st.good[slot] = 0;
      st.total[slot] = 0;
    }
    st.head_slot = target_slot;
  }

  /// Re-judges attainment + burn rate after a sample; stamps transitions.
  // mcs-lint: hot
  void evaluate(State& st, const SloSpec& spec, sim::SimTime at);

  std::vector<SloSpec> specs_;
  std::vector<State> states_;
  Tracer* tracer_ = nullptr;
};

}  // namespace mcs::obs
