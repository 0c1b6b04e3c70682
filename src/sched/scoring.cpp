#include "sched/scoring.hpp"

#include <algorithm>

namespace mcs::sched {

const char* to_string(NodeScorePolicy p) {
  switch (p) {
    case NodeScorePolicy::kNone: return "none";
    case NodeScorePolicy::kRandomHash: return "random-hash";
    case NodeScorePolicy::kFreeShareVariance: return "free-share-variance";
    case NodeScorePolicy::kSquaredMinDelta: return "squared-min-delta";
  }
  return "?";
}

NodeScorePolicy score_policy_from_string(const std::string& s) {
  if (s == "random-hash") return NodeScorePolicy::kRandomHash;
  if (s == "free-share-variance") return NodeScorePolicy::kFreeShareVariance;
  if (s == "squared-min-delta") return NodeScorePolicy::kSquaredMinDelta;
  return NodeScorePolicy::kNone;
}

std::vector<NodeScorePolicy> all_score_policies() {
  return {NodeScorePolicy::kNone, NodeScorePolicy::kRandomHash,
          NodeScorePolicy::kFreeShareVariance,
          NodeScorePolicy::kSquaredMinDelta};
}

namespace {

/// SplitMix64 finalizer: the same mixer the sim RNG seeds substreams with —
/// a pure function of its input, so scores are reproducible across runs,
/// platforms, and thread counts.
// mcs-lint: hot
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Post-placement free share of one dimension (free capacity after taking
/// `demand`, as a fraction of total capacity; 0 on zero-capacity dims).
// mcs-lint: hot
[[nodiscard]] double free_share_after(const infra::ResourceVector& free,
                                      const infra::ResourceVector& cap,
                                      const infra::ResourceVector& demand,
                                      std::size_t d) {
  return cap[d] <= 0.0 ? 0.0 : (free[d] - demand[d]) / cap[d];
}

}  // namespace

// mcs-lint: hot
std::uint32_t aa_count(const std::vector<AaCount>& table,
                       std::uint32_t job_slot, infra::MachineId machine) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), std::pair{job_slot, machine},
      [](const AaCount& row, const std::pair<std::uint32_t, infra::MachineId>& key) {
        if (row.job_slot != key.first) return row.job_slot < key.first;
        return row.machine < key.second;
      });
  if (it == table.end() || it->job_slot != job_slot || it->machine != machine) {
    return 0;
  }
  return it->count;
}

// mcs-lint: hot
bool placement_allows(const SchedulerView& view, const ReadyTask& t,
                      infra::MachineId id) {
  if (!machine_in_zone(t, id)) return false;
  if (t.spread_limit > 0 && view.aa != nullptr &&
      aa_count(*view.aa, t.job_slot, id) >= t.spread_limit) {
    return false;
  }
  return true;
}

// mcs-lint: hot
double score_machine(NodeScorePolicy policy, std::uint64_t salt,
                     workload::JobId job, const PlannedCapacity& planned,
                     infra::MachineId id,
                     const infra::ResourceVector& demand) {
  switch (policy) {
    case NodeScorePolicy::kNone:
      return 0.0;
    case NodeScorePolicy::kRandomHash:
      // 53 mixed bits as a double: deterministic per (salt, job, machine),
      // uncorrelated across machines — the YT NodeRandomHash spread.
      return static_cast<double>(
          mix64(salt ^ (job * 0xD1342543DE82EF95ull) ^ id) >> 11);
    case NodeScorePolicy::kFreeShareVariance: {
      // Variance of the two post-placement free shares {cpu, mem}:
      // ((a - b) / 2)^2. Minimal when the machine stays dimension-balanced
      // — the anti-fragmentation score.
      const infra::ResourceVector& free = planned.free_on(id);
      const infra::ResourceVector& cap = planned.capacity_on(id);
      const double a = free_share_after(free, cap, demand, 0);
      const double b = free_share_after(free, cap, demand, 1);
      const double half_delta = (a - b) * 0.5;
      return half_delta * half_delta;
    }
    case NodeScorePolicy::kSquaredMinDelta: {
      // Squared minimum of the post-placement free shares: minimal when the
      // tighter of cpu/mem is driven toward zero — the bin-packing score.
      const infra::ResourceVector& free = planned.free_on(id);
      const infra::ResourceVector& cap = planned.capacity_on(id);
      const double a = free_share_after(free, cap, demand, 0);
      const double b = free_share_after(free, cap, demand, 1);
      const double s = a < b ? a : b;
      return s * s;
    }
  }
  return 0.0;
}

std::optional<infra::MachineId> pick_machine(
    const std::vector<const infra::Machine*>& machines,
    const PlannedCapacity& planned, const ReadyTask& t, Fit fit,
    const SchedulerView& view) {
  if (!planned.may_fit_anywhere(t.demand)) return std::nullopt;
  const NodeScorePolicy sp =
      view.placement != nullptr ? view.placement->score : NodeScorePolicy::kNone;
  const std::uint64_t salt =
      sp != NodeScorePolicy::kNone ? view.placement->salt : 0;
  const bool constrained = t.zone_mask != nullptr || t.spread_limit > 0;
  // Minimum score wins. Machines arrive in ascending id order and only a
  // strictly smaller score displaces the incumbent, so ties break to the
  // lowest machine id — deterministic under any thread count. A Fit
  // heuristic maximizes, so its score is negated; negation is exact.
  std::optional<infra::MachineId> best;
  double best_score = 0.0;
  for (const infra::Machine* m : machines) {
    const infra::MachineId id = m->id();
    if (!planned.fits(id, t.demand)) continue;
    if (constrained && !placement_allows(view, t, id)) continue;
    double score = 0.0;
    if (sp != NodeScorePolicy::kNone) {
      score = score_machine(sp, salt, t.job, planned, id, t.demand);
    } else {
      switch (fit) {
        case Fit::kFirst:
          return id;
        case Fit::kBest:
          score = planned.free_on(id).cpu() - t.demand.cpu();
          break;
        case Fit::kWorst:
          score = -(planned.free_on(id).cpu() - t.demand.cpu());
          break;
        case Fit::kFastest:
          score = -m->speed_factor();
          break;
      }
    }
    if (!best || score < best_score) {
      best = id;
      best_score = score;
    }
  }
  return best;
}

const std::vector<std::uint64_t>& LabelFilterCache::mask_for(
    const std::string& zones, const infra::Datacenter& dc) {
  const std::size_t machine_count = dc.machine_count();
  auto [it, inserted] = cache_.try_emplace(zones);
  Entry& e = it->second;
  if (!inserted && e.machine_count == machine_count) {
    ++hits_;
    return e.mask;
  }
  ++misses_;
  e.machine_count = machine_count;
  e.mask.assign((machine_count + 63) / 64, 0);
  // Parse the comma-separated zone list and mark every machine whose zone
  // matches. Expressions are tiny (a handful of zone names); the linear
  // name scan per machine is submit-time only.
  for (infra::MachineId id = 0; id < machine_count; ++id) {
    const std::string& z = dc.zone_of(id);
    std::size_t start = 0;
    bool match = false;
    while (start <= zones.size()) {
      std::size_t end = zones.find(',', start);
      if (end == std::string::npos) end = zones.size();
      if (end - start == z.size() &&
          zones.compare(start, end - start, z) == 0) {
        match = true;
        break;
      }
      start = end + 1;
    }
    if (match) e.mask[id >> 6] |= std::uint64_t{1} << (id & 63);
  }
  return e.mask;
}

}  // namespace mcs::sched
