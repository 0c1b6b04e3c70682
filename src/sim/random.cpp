#include "sim/random.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mcs::sim {

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform: hi < lo");
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform_int: hi < lo");
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) throw std::invalid_argument("Rng::exponential: mean <= 0");
  return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::lognormal(double mu, double sigma) {
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  if (mean <= 0.0) throw std::invalid_argument("lognormal_mean_cv: mean <= 0");
  if (cv <= 0.0) return mean;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return lognormal(mu, std::sqrt(sigma2));
}

double Rng::weibull(double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) {
    throw std::invalid_argument("Rng::weibull: non-positive parameter");
  }
  return std::weibull_distribution<double>(shape, scale)(engine_);
}

std::size_t Rng::zipf(std::size_t n, double exponent) {
  if (n == 0) throw std::invalid_argument("Rng::zipf: n == 0");
  if (n == 1) return 0;
  // Rejection-inversion sampling (Hörmann & Derflinger 1996) for ranks
  // 1..n with P(k) proportional to k^-exponent; returns rank-1 (0-based).
  const double s = exponent;
  auto h = [s](double x) {
    return s == 1.0 ? std::log(x) : (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_inv = [s](double y) {
    return s == 1.0 ? std::exp(y) : std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double nd = static_cast<double>(n);
  const double hx0 = h(0.5) - 1.0;  // shifted so acceptance works for k=1
  const double hn = h(nd + 0.5);
  for (;;) {
    const double u = hx0 + uniform() * (hn - hx0);
    const double x = h_inv(u);
    const double k = std::floor(x + 0.5);
    if (k < 1.0) continue;
    if (k > nd) continue;
    if (u >= h(k + 0.5) - std::pow(k, -s)) {
      return static_cast<std::size_t>(k) - 1;
    }
  }
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("weighted_index: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("weighted_index: zero total");
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

}  // namespace mcs::sim
