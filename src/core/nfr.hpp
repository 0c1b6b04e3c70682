// Non-functional requirements as first-class objects (Principle P3,
// Challenge C3).
//
// The paper envisions spatially fine-grained NFRs (per unit of work) and
// temporally fine-grained NFRs (targets that change at runtime). An Slo here
// is a single target on one dimension; an Sla is a set of Slos with penalty
// accounting; both can be attached to whole jobs or to individual tasks.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace mcs::core {

/// The non-functional dimensions the paper names in P3/C3.
enum class NfrDimension {
  kLatency,       ///< response time / deadline, seconds
  kThroughput,    ///< work units per second, floor
  kAvailability,  ///< fraction of time up, floor in [0,1]
  kReliability,   ///< success probability, floor in [0,1]
  kCost,          ///< monetary budget, ceiling
  kElasticity,    ///< supply/demand tracking error, ceiling
  kSecurity,      ///< required isolation level, floor (ordinal)
  kEnergy,        ///< joules budget, ceiling
};

[[nodiscard]] std::string to_string(NfrDimension d);

/// A single service-level objective: a threshold on one dimension.
/// `is_ceiling` says whether attainment means staying <= target (latency,
/// cost, energy) or >= target (throughput, availability, ...).
struct Slo {
  NfrDimension dimension = NfrDimension::kLatency;
  double target = 0.0;
  bool is_ceiling = true;
  /// Relative importance used when objectives must be traded off
  /// (the paper: "relative importance ... is dynamic").
  double weight = 1.0;

  /// True when `observed` satisfies this objective.
  [[nodiscard]] bool attained(double observed) const {
    return is_ceiling ? observed <= target : observed >= target;
  }
};

/// The conventional deadline objective (a latency ceiling).
Slo deadline_slo(double seconds, double weight = 1.0);

/// A service-level agreement: objectives plus the penalty owed per violated
/// objective.
class Sla {
 public:
  Sla() = default;
  explicit Sla(std::vector<Slo> objectives) : objectives_(std::move(objectives)) {}

  // mcs-lint: allow(H3) — setup-time API; shares the name `add` with
  // hot-path metric recording, which over-approximate call resolution links.
  void add(Slo slo) { objectives_.push_back(slo); }

  [[nodiscard]] const std::vector<Slo>& objectives() const { return objectives_; }

  /// Looks up the objective on a dimension, if any.
  [[nodiscard]] std::optional<Slo> objective(NfrDimension dim) const;

  /// Evaluates observations (one per objective, by dimension); returns the
  /// number of violated objectives. Missing observations count as violations.
  struct Observation {
    NfrDimension dimension;
    double value;
  };
  [[nodiscard]] std::size_t violations(const std::vector<Observation>& obs) const;

  /// Penalty units owed for a violated objective (weight-scaled).
  [[nodiscard]] double penalty(const std::vector<Observation>& obs,
                               double unit_penalty) const;

 private:
  std::vector<Slo> objectives_;
};

}  // namespace mcs::core
