#include "check/shrink.hpp"

#include <utility>

namespace mcs::check {

namespace {

/// Full passes over all shrink dimensions; stops early at a fixed point.
constexpr std::size_t kMaxRounds = 6;
/// Upper bound for bisecting failure_limit when the trace size is unknown
/// (limits beyond the trace length are no-ops).
constexpr std::size_t kFailureProbeCap = 4096;

/// Shrink session state threaded through the passes.
struct Session {
  ScenarioSpec best;
  SeedRunResult best_result;
  std::size_t attempts = 0;
  std::size_t accepted = 0;

  /// Runs a candidate; adopts it as the new best if it still fails.
  bool try_adopt(const ScenarioSpec& candidate) {
    ++attempts;
    SeedRunResult r = run_spec(candidate);
    if (r.ok) return false;
    best = candidate;
    best_result = std::move(r);
    ++accepted;
    return true;
  }
};

/// Finds the smallest value of a size_t field in (0, hi] that still fails,
/// assuming (heuristically) that failing is monotone in the field. `set`
/// writes the candidate value into a copy of the current best spec.
template <typename Set>
void bisect_down(Session& s, std::size_t hi, Set set) {
  // First make the current bound concrete: if the field is effectively
  // unlimited, clamp it to hi (a no-op run-wise only if hi >= actual size,
  // so verify by running).
  {
    ScenarioSpec candidate = s.best;
    set(candidate, hi);
    if (!s.try_adopt(candidate)) return;  // clamping changed the outcome
  }
  std::size_t lo = 0;  // lo is not known to fail; hi does
  while (lo + 1 < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ScenarioSpec candidate = s.best;
    set(candidate, mid);
    if (s.try_adopt(candidate)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
}

/// Switches one feature of `c` off; false when it was already off.
using Simplify = bool (*)(ScenarioSpec& c);

/// Step 4's simplifications, in the order every round tries them; the
/// het-profile knobs go one dimension at a time.
constexpr Simplify kSimplifications[] = {
    [](ScenarioSpec& c) { return std::exchange(c.failures_enabled, false); },
    [](ScenarioSpec& c) { return std::exchange(c.impossible_job, false); },
    [](ScenarioSpec& c) { return std::exchange(c.scavenging, false); },
    [](ScenarioSpec& c) {
      const bool on = c.heterogeneous || c.accel_fraction > 0.0;
      c.heterogeneous = false;
      c.accel_fraction = 0.0;
      return on;
    },
    [](ScenarioSpec& c) {
      const bool on = c.policy != "fcfs";
      c.policy = "fcfs";
      return on;
    },
    [](ScenarioSpec& c) {
      const bool on = c.zone_count > 0;
      c.zone_count = 0;
      c.zone_job_fraction = 0.0;
      return on;
    },
    [](ScenarioSpec& c) {
      const bool on = c.spread_fraction > 0.0 || c.spread_limit > 0;
      c.spread_fraction = 0.0;
      c.spread_limit = 0;
      return on;
    },
    [](ScenarioSpec& c) {
      const bool on = c.net_capacity > 0.0 || c.net_demand_fraction > 0.0;
      c.net_capacity = 0.0;
      c.net_demand_fraction = 0.0;
      return on;
    },
    [](ScenarioSpec& c) {
      const bool on = !c.score_policy.empty();
      c.score_policy.clear();
      c.score_salt = 0;
      return on;
    },
    [](ScenarioSpec& c) { return std::exchange(c.retry, false); },
};

}  // namespace

ShrinkResult shrink(const ScenarioSpec& spec) {
  Session s;
  s.best = spec;
  s.best_result = run_spec(spec);
  ++s.attempts;

  ShrinkResult out;
  if (s.best_result.ok) {
    out.spec = s.best;
    out.result = s.best_result;
    out.attempts = s.attempts;
    return out;  // nothing to shrink
  }
  out.failing = true;

  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    const std::size_t accepted_before = s.accepted;

    // 1. Fewer jobs: smallest failing earliest-arrival prefix of the trace.
    bisect_down(s, s.best.trace.job_count,
                [](ScenarioSpec& c, std::size_t v) { c.job_limit = v; });

    // 2. Fewer failure events (prefix of the failure trace).
    if (s.best.failures_enabled) {
      bisect_down(s, kFailureProbeCap,
                  [](ScenarioSpec& c, std::size_t v) { c.failure_limit = v; });
    }

    // 3. Fewer drain/power flaps.
    if (s.best.flap_count > 0) {
      bisect_down(s, s.best.flap_count,
                  [](ScenarioSpec& c, std::size_t v) { c.flap_count = v; });
    }

    // 4. Toggles and simplifications: keep any that still reproduce.
    for (const Simplify simplify : kSimplifications) {
      ScenarioSpec c = s.best;
      if (simplify(c)) s.try_adopt(c);
    }

    // 5. Smaller floor: drop racks, then machines per rack.
    while (s.best.racks > 1) {
      ScenarioSpec c = s.best;
      c.racks -= 1;
      if (!s.try_adopt(c)) break;
    }
    while (s.best.per_rack > 1) {
      ScenarioSpec c = s.best;
      c.per_rack -= 1;
      if (!s.try_adopt(c)) break;
    }

    // 6. Shorter horizon (fewer flap/failure windows).
    while (s.best.horizon > sim::kMinute) {
      ScenarioSpec c = s.best;
      c.horizon = c.horizon / 2;
      if (!s.try_adopt(c)) break;
    }

    if (s.accepted == accepted_before) break;  // fixed point
  }

  out.spec = s.best;
  out.result = s.best_result;
  out.attempts = s.attempts;
  out.accepted = s.accepted;
  return out;
}

}  // namespace mcs::check
