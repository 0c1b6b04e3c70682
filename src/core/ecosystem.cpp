#include "core/ecosystem.hpp"

#include <algorithm>

namespace mcs::core {

std::string to_string(Layer layer) {
  switch (layer) {
    case Layer::kUnspecified: return "unspecified";
    case Layer::kHighLevelLanguage: return "high-level language";
    case Layer::kProgrammingModel: return "programming model";
    case Layer::kExecutionEngine: return "execution engine";
    case Layer::kStorageEngine: return "storage engine";
    case Layer::kFrontend: return "front-end";
    case Layer::kBackend: return "back-end";
    case Layer::kResources: return "resources";
    case Layer::kOperationsService: return "operations service";
    case Layer::kInfrastructure: return "infrastructure";
    case Layer::kDevOps: return "devops";
  }
  return "unknown";
}

std::string to_string(EvolutionMechanism m) {
  switch (m) {
    case EvolutionMechanism::kAdd: return "add";
    case EvolutionMechanism::kRemove: return "remove";
    case EvolutionMechanism::kReplace: return "replace";
    case EvolutionMechanism::kCombine: return "combine";
    case EvolutionMechanism::kBridge: return "bridge";
  }
  return "unknown";
}

void Ecosystem::record(EvolutionMechanism m, std::string subject,
                       std::string detail) {
  // mcs-lint: allow(H3) — evolution events are rare (topology changes, not
  // per-task work); the log is unbounded by design.
  history_.push_back(
      EvolutionRecord{m, std::move(subject), std::move(detail), step_++});
}

std::size_t Ecosystem::add_system(SystemInfo info) {
  record(EvolutionMechanism::kAdd, info.name, "system added");
  systems_.push_back(std::move(info));
  return systems_.size() - 1;
}

Ecosystem& Ecosystem::add_subecosystem(std::string name) {
  record(EvolutionMechanism::kCombine, name, "sub-ecosystem adopted");
  children_.push_back(std::make_unique<Ecosystem>(std::move(name)));
  return *children_.back();
}

void Ecosystem::bridge(const std::string& from, const std::string& to) {
  record(EvolutionMechanism::kBridge, from, "bridged to " + to);
  bridges_.emplace_back(from, to);
}

void Ecosystem::merge(Ecosystem&& other) {
  record(EvolutionMechanism::kCombine, other.name_,
         "merged ecosystem (" + std::to_string(other.total_systems()) +
             " systems)");
  for (SystemInfo& s : other.systems_) {
    systems_.push_back(std::move(s));
  }
  other.systems_.clear();
  for (auto& child : other.children_) {
    children_.push_back(std::move(child));
  }
  other.children_.clear();
  for (auto& b : other.bridges_) {
    bridges_.push_back(std::move(b));
  }
  other.bridges_.clear();
}

Ecosystem Ecosystem::split(const std::string& new_name,
                           const std::vector<std::string>& system_names) {
  Ecosystem carved(new_name);
  for (const std::string& name : system_names) {
    auto it = std::find_if(systems_.begin(), systems_.end(),
                           [&](const SystemInfo& s) { return s.name == name; });
    if (it == systems_.end()) continue;
    record(EvolutionMechanism::kRemove, name, "split into " + new_name);
    carved.add_system(std::move(*it));
    systems_.erase(it);
  }
  // Bridges entirely inside the carved set move with it; bridges crossing
  // the new boundary are severed (the break-up cost).
  auto in_carved = [&](const std::string& name) {
    return carved.find(name).has_value();
  };
  std::vector<std::pair<std::string, std::string>> kept;
  for (auto& b : bridges_) {
    if (in_carved(b.first) && in_carved(b.second)) {
      carved.bridge(b.first, b.second);
    } else if (!in_carved(b.first) && !in_carved(b.second)) {
      kept.push_back(std::move(b));
    }  // crossing bridges are dropped
  }
  bridges_ = std::move(kept);
  return carved;
}

std::size_t Ecosystem::total_systems() const {
  std::size_t n = systems_.size();
  for (const auto& c : children_) n += c->total_systems();
  return n;
}

std::size_t Ecosystem::depth() const {
  std::size_t d = 0;
  for (const auto& c : children_) d = std::max(d, c->depth());
  return d + 1;
}

void Ecosystem::collect_owners(std::map<std::string, int>& owners) const {
  for (const auto& s : systems_) ++owners[s.owner];
  for (const auto& c : children_) c->collect_owners(owners);
}

bool Ecosystem::is_ecosystem() const {
  const std::size_t total = total_systems();
  if (total < 2) return false;

  // Heterogeneity: more than one layer or more than one owner (recursive).
  std::map<std::string, int> owners;
  collect_owners(owners);
  std::map<Layer, int> layers;
  for (const auto& s : systems_) ++layers[s.layer];
  const bool heterogeneous = owners.size() > 1 || layers.size() > 1 ||
                             !children_.empty();
  if (!heterogeneous) return false;

  // Autonomy: all constituents at this level must be able to act
  // independently (the paper's definitional requirement).
  for (const auto& s : systems_) {
    if (!s.autonomous) return false;
  }

  // Legacy monolith test (§2.1 "when is a system not an ecosystem", (ii)):
  // a legacy majority disqualifies the group.
  std::size_t legacy = 0;
  for (const auto& s : systems_) {
    if (s.legacy) ++legacy;
  }
  if (!systems_.empty() && legacy * 2 > systems_.size()) return false;

  return true;
}

std::optional<SystemInfo> Ecosystem::find(const std::string& name) const {
  for (const auto& s : systems_) {
    if (s.name == name) return s;
  }
  return std::nullopt;
}

}  // namespace mcs::core
