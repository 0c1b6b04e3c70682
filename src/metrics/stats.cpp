#include "metrics/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mcs::metrics {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  if (keep_samples_) {
    // mcs-lint: allow(H3) — opt-in raw-sample retention (percentiles);
    // amortized doubling growth, accepted when keep_samples is requested.
    samples_.push_back(x);
    sorted_ = false;
  }
}

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (keep_samples_) {
    if (!other.keep_samples_) {
      throw std::logic_error(
          "Accumulator::merge: sample-keeping side cannot absorb a "
          "sample-free accumulator");
    }
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }
  if (n_ == 0) {
    n_ = other.n_;
    sum_ = other.sum_;
    mean_ = other.mean_;
    m2_ = other.m2_;
    min_ = other.min_;
    max_ = other.max_;
    return;
  }
  const auto n1 = static_cast<double>(n_);
  const auto n2 = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * (n2 / (n1 + n2));
  m2_ += other.m2_ + delta * delta * (n1 * n2 / (n1 + n2));
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const { return n_ == 0 ? 0.0 : min_; }
double Accumulator::max() const { return n_ == 0 ? 0.0 : max_; }

double Accumulator::cv() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / std::abs(m);
}

double Accumulator::quantile(double q) const {
  if (!keep_samples_) {
    throw std::logic_error("Accumulator::quantile without sample retention");
  }
  if (samples_.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

Histogram Accumulator::histogram() const {
  if (!keep_samples_) {
    throw std::logic_error("Accumulator::histogram without sample retention");
  }
  Histogram h;
  for (double x : samples_) h.record(x);
  return h;
}

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;  // <= 0, NaN, and -inf all land in bucket 0
  int exp = 0;
  std::frexp(v, &exp);  // v = frac * 2^exp, frac in [0.5, 1)
  // [1, 2) has exp == 1 → shift so it maps to kZeroExponentBucket.
  const int b = exp - 1 + kZeroExponentBucket;
  if (b < 1) return 1;  // positive but below range: first finite bucket
  if (b >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<std::size_t>(b);
}

double Histogram::bucket_floor(std::size_t b) {
  if (b == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(b) - kZeroExponentBucket);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) bins_[i] += other.bins_[i];
  sum_ += other.sum_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::size_t Histogram::quantile_bucket(double q) const {
  if (count_ == 0) return kBuckets;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (0-based, nearest-rank style).
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += bins_[b];
    if (seen > rank) return b;
  }
  return kBuckets - 1;
}

double Histogram::quantile(double q) const {
  const std::size_t b = quantile_bucket(q);
  if (b == kBuckets) return 0.0;
  // Geometric midpoint of [floor, 2*floor); bucket 0 reports 0.
  const double lo = bucket_floor(b);
  const double mid = lo == 0.0 ? 0.0 : lo * 1.5;
  return std::min(std::max(mid, min_), max_);
}

void Digest::add_bytes(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;  // FNV-1a prime
  }
  ++fed_;
}

void Digest::add_u64(std::uint64_t v) { add_bytes(&v, sizeof(v)); }

void Digest::add_double(double v) { add_bytes(&v, sizeof(v)); }

void Digest::merge(const Digest& child) {
  std::uint64_t v = child.h_;
  add_bytes(&v, sizeof(v));
  v = child.fed_;
  add_bytes(&v, sizeof(v));
}

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string Digest::hex() const { return hex16(h_); }

LinearFit least_squares(const std::vector<double>& x,
                        const std::vector<double>& y) {
  LinearFit fit;
  if (x.size() != y.size() || x.size() < 2) return fit;
  const auto n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double den = n * sxx - sx * sx;
  if (den == 0.0) return fit;
  fit.slope = (n * sxy - sx * sy) / den;
  fit.intercept = (sy - fit.slope * sx) / n;
  return fit;
}

}  // namespace mcs::metrics
