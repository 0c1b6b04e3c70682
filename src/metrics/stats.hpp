// Summary statistics used across all experiments.
//
// The paper's methodology (§3.3) demands statistically sound observation:
// experiments report distributions (percentiles, CV, IQR), not just means —
// performance variability [145] is itself one of the reproduced experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mcs::metrics {

class Histogram;

/// Streaming accumulator: O(1) memory for mean/variance (Welford),
/// plus optional sample retention for quantiles.
class Accumulator {
 public:
  explicit Accumulator(bool keep_samples = true) : keep_samples_(keep_samples) {}

  void add(double x);

  /// Folds another accumulator into this one (Chan et al. pairwise update
  /// for mean/M2; min/max/sum/count combine directly; samples are
  /// concatenated). Deterministic but — like any floating-point fold — not
  /// commutative: callers merging parallel partials must do so in a fixed
  /// order (the sweep runner merges in flat grid order) for bit-identical
  /// results at any thread count. Requires matching keep_samples modes
  /// when both sides hold data.
  void merge(const Accumulator& other);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  /// Coefficient of variation (stddev/mean); 0 when mean == 0.
  [[nodiscard]] double cv() const;

  /// Linear-interpolated quantile, q in [0,1]. Requires keep_samples.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Interquartile range. Requires keep_samples.
  [[nodiscard]] double iqr() const { return quantile(0.75) - quantile(0.25); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

  /// Bins the retained samples through Histogram::record — the one binning
  /// implementation — so accumulator-derived and instrument-recorded
  /// histograms always agree. Requires keep_samples.
  [[nodiscard]] class Histogram histogram() const;

 private:
  bool keep_samples_;
  std::size_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Fixed-bin log-bucketed histogram (HDR-style): 64 power-of-two buckets
/// over the value's binary exponent, plus exact count/sum/min/max. This is
/// the *single* binning implementation in the repository — the obs layer's
/// histogram instruments (src/obs/registry.hpp) wrap this class and
/// Accumulator::histogram() bins retained samples through the same
/// record() path, so bucket boundaries can never drift apart.
///
/// record() is allocation-free (the bins are a fixed array) and therefore
/// legal inside `// mcs-lint: hot` functions. merge() adds bin counts —
/// exactly associative for the integer state (bins, count) and for sums of
/// exactly-representable values.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;
  /// Bucket index for a value: 0 holds v <= 0 and subnormal magnitudes;
  /// otherwise floor(log2(v)) shifted so bucket kZeroExponentBucket holds
  /// [1, 2). Values beyond the range clamp to the first/last bucket.
  static constexpr int kZeroExponentBucket = 32;
  [[nodiscard]] static std::size_t bucket_of(double v);
  /// Inclusive-exclusive value range [lo, hi) covered by bucket b (bucket 0
  /// reports [0, smallest bound); the last bucket's hi is +infinity).
  [[nodiscard]] static double bucket_floor(std::size_t b);

  /// Records one observation. Allocation-free.
  // mcs-lint: hot
  void record(double v) {
    ++bins_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1) {
      min_ = max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
    }
  }

  /// Adds another histogram's bins/count/sum/min/max into this one.
  /// Associative: (a+b)+c and a+(b+c) hold identical integer state.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }
  [[nodiscard]] std::uint64_t bin(std::size_t b) const { return bins_[b]; }

  /// Bucket-resolution quantile estimate, q in [0,1]: walks the bins and
  /// returns the geometric midpoint of the bucket holding the q-th
  /// observation (clamped to the recorded min/max). The true quantile is
  /// guaranteed to lie inside that bucket's [floor, 2*floor) range — a
  /// relative error of at most 2x, honestly reportable via
  /// quantile_bucket() + bucket_floor().
  [[nodiscard]] double quantile(double q) const;

  /// Index of the bucket holding the q-th observation (nearest-rank,
  /// 0-based) — the bucket whose bounds bracket the true quantile.
  /// Returns kBuckets when the histogram is empty.
  [[nodiscard]] std::size_t quantile_bucket(double q) const;

 private:
  std::uint64_t bins_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Order-sensitive FNV-1a digest over a stream of values, with a merge
/// operation for combining per-replication digests. merge() is
/// deterministic (it folds the child's hash and length into the parent)
/// but not commutative, so parallel sweeps merge per-cell digests in flat
/// grid order — the digest is then bit-identical at any thread count.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t len);
  void add_u64(std::uint64_t v);
  /// Hashes the exact bit pattern (reproducible across runs, not across
  /// float representations — fine for one toolchain).
  void add_double(double v);
  void merge(const Digest& child);

  [[nodiscard]] std::uint64_t value() const { return h_; }
  /// 16 lowercase hex digits (the format scripts/gate.sh diffs).
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::uint64_t fed_ = 0;                     // values fed (length guard)
};

/// 16 lowercase hex digits of an arbitrary u64 (the digest line format).
[[nodiscard]] std::string hex16(std::uint64_t v);

/// Ordinary least squares fit y = a + b*x; returns {a, b}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
};
[[nodiscard]] LinearFit least_squares(const std::vector<double>& x,
                                      const std::vector<double>& y);

}  // namespace mcs::metrics
