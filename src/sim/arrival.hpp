// Arrival processes for workload generation.
//
// Grid and cloud workloads exhibit short-term burstiness (§5.1 C7, citing
// [113]) that a plain Poisson process cannot express; the Markov-modulated
// Poisson process (MMPP) here produces the bursty regime switches the
// characterization literature reports, and the diurnal process models the
// day/night cycles that drive autoscaling (C3, [43]).
#pragma once

#include <memory>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace mcs::sim {

/// Produces successive inter-arrival gaps; stateful and seeded.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  /// Next inter-arrival gap (virtual time units, > 0 unless batch arrival).
  virtual SimTime next_gap(Rng& rng) = 0;
};

/// Homogeneous Poisson process with the given mean rate (arrivals/second).
class PoissonProcess final : public ArrivalProcess {
 public:
  explicit PoissonProcess(double rate_per_second);
  SimTime next_gap(Rng& rng) override;

 private:
  double mean_gap_seconds_;
};

/// Two-state Markov-modulated Poisson process: a "calm" state with low rate
/// and a "burst" state with high rate; state sojourn times are exponential.
class MmppProcess final : public ArrivalProcess {
 public:
  MmppProcess(double calm_rate, double burst_rate, double mean_calm_seconds,
              double mean_burst_seconds);
  SimTime next_gap(Rng& rng) override;

 private:
  double calm_rate_, burst_rate_;
  double mean_calm_s_, mean_burst_s_;
  bool in_burst_ = false;
  double state_left_s_ = 0.0;
};

/// Poisson process whose rate follows a sinusoidal diurnal pattern:
/// rate(t) = base * (1 + amplitude * sin(2*pi*t/period)). Sampled by
/// thinning, so it is an exact non-homogeneous Poisson process.
class DiurnalProcess final : public ArrivalProcess {
 public:
  DiurnalProcess(double base_rate, double amplitude, SimTime period);
  SimTime next_gap(Rng& rng) override;

 private:
  double base_rate_;
  double amplitude_;
  SimTime period_;
  SimTime virtual_now_ = 0;
};

}  // namespace mcs::sim
