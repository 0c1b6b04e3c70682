#include "core/nfr.hpp"

#include <algorithm>

namespace mcs::core {

std::string to_string(NfrDimension d) {
  switch (d) {
    case NfrDimension::kLatency: return "latency";
    case NfrDimension::kThroughput: return "throughput";
    case NfrDimension::kAvailability: return "availability";
    case NfrDimension::kReliability: return "reliability";
    case NfrDimension::kCost: return "cost";
    case NfrDimension::kElasticity: return "elasticity";
    case NfrDimension::kSecurity: return "security";
    case NfrDimension::kEnergy: return "energy";
  }
  return "unknown";
}

Slo deadline_slo(double seconds, double weight) {
  return Slo{NfrDimension::kLatency, seconds, /*is_ceiling=*/true, weight};
}

std::optional<Slo> Sla::objective(NfrDimension dim) const {
  for (const Slo& s : objectives_) {
    if (s.dimension == dim) return s;
  }
  return std::nullopt;
}

std::size_t Sla::violations(const std::vector<Observation>& obs) const {
  std::size_t count = 0;
  for (const Slo& s : objectives_) {
    auto it = std::find_if(obs.begin(), obs.end(), [&](const Observation& o) {
      return o.dimension == s.dimension;
    });
    if (it == obs.end() || !s.attained(it->value)) ++count;
  }
  return count;
}

double Sla::penalty(const std::vector<Observation>& obs,
                    double unit_penalty) const {
  double total = 0.0;
  for (const Slo& s : objectives_) {
    auto it = std::find_if(obs.begin(), obs.end(), [&](const Observation& o) {
      return o.dimension == s.dimension;
    });
    if (it == obs.end() || !s.attained(it->value)) {
      total += unit_penalty * s.weight;
    }
  }
  return total;
}

}  // namespace mcs::core
