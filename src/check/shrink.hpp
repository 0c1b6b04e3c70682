// Seed shrinking: reduce a failing fuzz scenario to a minimal reproducer.
//
// Works on the ScenarioSpec (check/fuzz.hpp), not the raw seed: every
// sub-model draws from its own substream of the spec seed, so truncating
// one dimension (fewer jobs, fewer failure events, fewer flaps) leaves the
// surviving draws bit-identical. The shrinker greedily bisects the list
// dimensions and then tries to switch off toggles (impossible job,
// scavenging, failures, heterogeneity) and simplify knobs (policy -> fcfs,
// shorter horizon), re-running the scenario under the oracle after each
// candidate and keeping any strictly-smaller spec that still fails. The
// result serializes via to_text into a ctest-able repro file
// (`mcs_check --replay FILE`).
#pragma once

#include <cstddef>

#include "check/fuzz.hpp"

namespace mcs::check {

struct ShrinkResult {
  ScenarioSpec spec;     ///< smallest failing spec found
  SeedRunResult result;  ///< the run of that spec (holds the violation)
  std::size_t attempts = 0;   ///< candidate runs executed
  std::size_t accepted = 0;   ///< candidates that still failed (kept)
  bool failing = false;  ///< false if the input spec did not fail at all
};

/// Shrinks a failing spec. If `spec` does not fail when run, returns
/// immediately with failing=false and the passing result.
[[nodiscard]] ShrinkResult shrink(const ScenarioSpec& spec);

}  // namespace mcs::check
