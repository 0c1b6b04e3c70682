// Seeded random variates for workload, failure, and behaviour models.
//
// The paper's methodology section (§3.3 "Quantitative results") calls for
// statistically sound workload and failure modelling; the distributions here
// are the ones the cited characterization studies use: exponential/Poisson
// arrivals, lognormal task sizes [39], Weibull inter-failure times [26][27],
// and Zipf popularity.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace mcs::sim {

/// Deterministic pseudo-random source. Every stochastic component takes an
/// Rng (or a seed used to derive one); experiments print their seeds so runs
/// are reproducible (paper P8: reproducibility as essential service).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool chance(double p);

  /// Exponential with given mean (mean > 0).
  double exponential(double mean);
  /// Normal with mean/stddev.
  double normal(double mean, double stddev);
  /// Lognormal parameterized by the *underlying* normal's mu/sigma.
  double lognormal(double mu, double sigma);
  /// Lognormal parameterized by its own mean and coefficient of variation.
  double lognormal_mean_cv(double mean, double cv);
  /// Weibull with shape k and scale lambda.
  double weibull(double shape, double scale);

  /// Zipf-distributed rank in [0, n). O(1) per draw after O(n) setup is not
  /// kept; uses rejection-inversion (Hörmann) so it is allocation free.
  std::size_t zipf(std::size_t n, double exponent);

  /// Picks an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(v[i - 1], v[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace mcs::sim
