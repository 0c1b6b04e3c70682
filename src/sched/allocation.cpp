#include "sched/allocation.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "sched/scoring.hpp"
#include "sim/random.hpp"

namespace mcs::sched {

namespace {

// Every queue-ordering policy (FCFS, SJF, LJF, fair-share, EDF, EASY and
// conservative backfilling) is one OrderedPolicy skeleton that differs only
// in its comparator, Fit heuristic and reservation depth; HEFT and MinMin
// share one earliest-finish scan. PlannedCapacity, ReleaseProfile and
// pick_machine live in sched/scoring.hpp: the placement pass (K=4 planned
// capacity, node scoring, zone/anti-affinity admission) is shared with the
// engine, the fuzzer, and the benches.

/// Ready-queue indices stable-sorted by `cmp` (ties keep queue order).
template <typename Compare>
std::vector<std::size_t> sorted_order(const SchedulerView& view,
                                      const Compare& cmp) {
  std::vector<std::size_t> order(view.ready->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cmp((*view.ready)[a], (*view.ready)[b], view);
                   });
  return order;
}

/// The queue's componentwise minimum demand, its "floor" (+inf when empty).
/// Where the floor fits nowhere no queued task fits, and `take` only shrinks
/// the bound: a placement loop may stop there, bit-identically (DESIGN.md §9).
infra::ResourceVector min_demand(const std::vector<ReadyTask>& ready) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  infra::ResourceVector floor{kInf, kInf, kInf, kInf};
  for (const ReadyTask& t : ready) {
    for (std::size_t d = 0; d < core::kResourceDims; ++d) {
      floor[d] = std::min(floor[d], t.demand[d]);
    }
  }
  return floor;
}

// Comparators for the ordered policies.
struct FcfsCmp {
  bool operator()(const ReadyTask& a, const ReadyTask& b,
                  const SchedulerView&) const {
    if (a.job_submit != b.job_submit) return a.job_submit < b.job_submit;
    if (a.job != b.job) return a.job < b.job;
    return a.task_index < b.task_index;
  }
};
struct SjfCmp {
  bool operator()(const ReadyTask& a, const ReadyTask& b,
                  const SchedulerView&) const {
    return a.work_seconds < b.work_seconds;
  }
};
struct LjfCmp {
  bool operator()(const ReadyTask& a, const ReadyTask& b,
                  const SchedulerView&) const {
    return a.work_seconds > b.work_seconds;
  }
};
struct FairShareCmp {
  bool operator()(const ReadyTask& a, const ReadyTask& b,
                  const SchedulerView& view) const {
    double ua = 0.0, ub = 0.0;
    if (view.user_usage != nullptr) {
      const std::vector<double>& usage = *view.user_usage;
      if (a.user_id < usage.size()) ua = usage[a.user_id];
      if (b.user_id < usage.size()) ub = usage[b.user_id];
    }
    if (ua != ub) return ua < ub;  // least-served user first
    return FcfsCmp{}(a, b, view);
  }
};
struct EdfCmp {
  bool operator()(const ReadyTask& a, const ReadyTask& b,
                  const SchedulerView& view) const {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return FcfsCmp{}(a, b, view);
  }
};

/// The one list-scheduling skeleton (DESIGN.md §9). Order the ready queue
/// by `cmp` and walk it once: a task starts when pick_machine places it and
/// it is expected to end by the earliest reservation on that machine. A task
/// that cannot start takes a reservation at the earliest time some machine
/// could hold it (ReleaseProfile), while fewer than `depth` were granted this
/// round. Depth 0 is greedy list scheduling (FCFS/SJF/LJF/fair-share/EDF),
/// depth 1 is EASY backfilling (only the blocked head is protected) and
/// SIZE_MAX is conservative backfilling (every blocked task is) — Mu'alem &
/// Feitelson's reservation depth.
template <typename Compare>
class OrderedPolicy final : public AllocationPolicy {
 public:
  OrderedPolicy(std::string name, Compare cmp, Fit fit, std::size_t depth)
      : name_(std::move(name)), cmp_(std::move(cmp)), fit_(fit),
        depth_(depth) {}

  [[nodiscard]] std::string name() const override { return name_; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    PlannedCapacity planned(view.machines);
    const infra::ResourceVector floor = min_demand(*view.ready);
    if (!planned.may_fit_anywhere(floor)) return {};
    // Built on the first reservation, so a depth-0 round never pays for
    // them. reservation_at: earliest reservation per machine id
    // (kTimeInfinity: none).
    std::optional<ReleaseProfile> profile;
    std::vector<sim::SimTime> reservation_at;
    std::size_t granted = 0;
    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    for (std::size_t idx : sorted_order(view, cmp_)) {
      // Nothing left fits anywhere, so nothing can start or gate a start.
      if (!planned.may_fit_anywhere(floor)) break;
      const ReadyTask& t = (*view.ready)[idx];
      const auto m = pick_machine(view.machines, planned, t, fit_, view);
      // Once a reservation exists, a start must be expected to end by the
      // earliest reservation on its machine.
      if (m && (granted == 0 ||
                view.now + sim::from_seconds(t.work_seconds /
                                             planned.speed(*m)) <=
                    reservation_at[*m])) {
        planned.take(*m, t.demand);
        out.push_back(Assignment{idx, *m});
        continue;
      }
      if (granted >= depth_) continue;
      // A task that can never fit anywhere gets kTimeInfinity: it records
      // nothing but still uses up its reservation.
      if (!profile) {
        profile.emplace(view);
        reservation_at.assign(planned.id_bound(), sim::kTimeInfinity);
      }
      const auto [when, machine] = profile->reservation_for(t, view);
      reservation_at[machine] = std::min(reservation_at[machine], when);
      ++granted;
    }
    return out;
  }

 private:
  std::string name_;
  Compare cmp_;
  Fit fit_;
  std::size_t depth_;  ///< reservations granted per round at most
};

template <typename Compare>
std::unique_ptr<AllocationPolicy> ordered(std::string name, Compare cmp,
                                          Fit fit, std::size_t depth = 0) {
  return std::make_unique<OrderedPolicy<Compare>>(std::move(name),
                                                  std::move(cmp), fit, depth);
}

std::string fit_suffix(Fit fit) {
  switch (fit) {
    case Fit::kFirst: return "";
    case Fit::kBest: return "-bestfit";
    case Fit::kWorst: return "-worstfit";
    case Fit::kFastest: return "-fastest";
  }
  return "";
}

/// The machine with room that admits `t` and finishes it first (run time
/// work / speed, strictly smaller wins, so ties go to the lowest id), with
/// that run time; nullopt when none. Speed alone decides: the node-scoring
/// policy does not apply to HEFT and MinMin.
std::optional<std::pair<infra::MachineId, double>> earliest_finish(
    const SchedulerView& view, const PlannedCapacity& planned,
    const ReadyTask& t) {
  if (!planned.may_fit_anywhere(t.demand)) return std::nullopt;
  std::optional<std::pair<infra::MachineId, double>> best;
  double best_finish = std::numeric_limits<double>::max();
  for (const infra::Machine* m : view.machines) {
    if (!planned.fits(m->id(), t.demand)) continue;
    if (!placement_allows(view, t, m->id())) continue;
    const double finish = t.work_seconds / m->speed_factor();
    if (finish < best_finish) {
      best_finish = finish;
      best = {m->id(), finish};
    }
  }
  return best;
}

// ---- HEFT ---------------------------------------------------------------------

class Heft final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "heft"; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    PlannedCapacity planned(view.machines);
    const infra::ResourceVector floor = min_demand(*view.ready);
    if (!planned.may_fit_anywhere(floor)) return {};
    // Highest upward rank first; FCFS tiebreak.
    const auto by_rank = [](const ReadyTask& a, const ReadyTask& b,
                            const SchedulerView&) { return a.rank > b.rank; };
    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    for (std::size_t idx : sorted_order(view, by_rank)) {
      if (!planned.may_fit_anywhere(floor)) break;
      const ReadyTask& t = (*view.ready)[idx];
      if (const auto best = earliest_finish(view, planned, t)) {
        planned.take(best->first, t.demand);
        out.push_back(Assignment{idx, best->first});
      }
    }
    return out;
  }
};

// ---- min-min / max-min -----------------------------------------------------------

class MinMin final : public AllocationPolicy {
 public:
  explicit MinMin(bool max_first)
      : max_first_(max_first) {}

  [[nodiscard]] std::string name() const override {
    return max_first_ ? "max-min" : "min-min";
  }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    PlannedCapacity planned(view.machines);
    std::vector<bool> taken(view.ready->size(), false);
    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    for (;;) {
      // For each unassigned task, its minimum completion time and argmin
      // machine under planned capacity.
      std::optional<std::size_t> chosen;
      std::pair<infra::MachineId, double> chosen_finish;
      for (std::size_t i = 0; i < view.ready->size(); ++i) {
        if (taken[i]) continue;
        const auto f = earliest_finish(view, planned, (*view.ready)[i]);
        if (!f) continue;
        const bool better =
            !chosen || (max_first_ ? f->second > chosen_finish.second
                                   : f->second < chosen_finish.second);
        if (better) {
          chosen = i;
          chosen_finish = *f;
        }
      }
      if (!chosen) break;
      taken[*chosen] = true;
      planned.take(chosen_finish.first, (*view.ready)[*chosen].demand);
      out.push_back(Assignment{*chosen, chosen_finish.first});
    }
    return out;
  }

 private:
  bool max_first_;
};

// ---- random ------------------------------------------------------------------------

class RandomPolicy final : public AllocationPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::string name() const override { return "random"; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    PlannedCapacity planned(view.machines);
    std::vector<std::size_t> order(view.ready->size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng_.shuffle(order);
    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    for (std::size_t idx : order) {
      const ReadyTask& t = (*view.ready)[idx];
      if (!planned.may_fit_anywhere(t.demand)) continue;
      // Collect fitting machines, pick one uniformly.
      std::vector<infra::MachineId> options;
      options.reserve(view.machines.size());
      for (const infra::Machine* m : view.machines) {
        if (planned.fits(m->id(), t.demand) &&
            placement_allows(view, t, m->id())) {
          options.push_back(m->id());
        }
      }
      if (options.empty()) continue;
      const auto pick = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(options.size()) - 1));
      planned.take(options[pick], t.demand);
      out.push_back(Assignment{idx, options[pick]});
    }
    return out;
  }

 private:
  sim::Rng rng_;
};

}  // namespace

std::unique_ptr<AllocationPolicy> make_fcfs(Fit fit) {
  return ordered("fcfs" + fit_suffix(fit), FcfsCmp{}, fit);
}
std::unique_ptr<AllocationPolicy> make_sjf(Fit fit) {
  return ordered("sjf" + fit_suffix(fit), SjfCmp{}, fit);
}
std::unique_ptr<AllocationPolicy> make_ljf(Fit fit) {
  return ordered("ljf" + fit_suffix(fit), LjfCmp{}, fit);
}
std::unique_ptr<AllocationPolicy> make_fair_share(Fit fit) {
  return ordered("fair-share" + fit_suffix(fit), FairShareCmp{}, fit);
}
std::unique_ptr<AllocationPolicy> make_edf(Fit fit) {
  return ordered("edf" + fit_suffix(fit), EdfCmp{}, fit);
}
std::unique_ptr<AllocationPolicy> make_easy_backfilling() {
  return ordered("easy-backfill", FcfsCmp{}, Fit::kFirst, 1);
}
std::unique_ptr<AllocationPolicy> make_conservative_backfilling() {
  return ordered("conservative-backfill", FcfsCmp{}, Fit::kFirst, SIZE_MAX);
}
std::unique_ptr<AllocationPolicy> make_heft() {
  return std::make_unique<Heft>();
}
std::unique_ptr<AllocationPolicy> make_min_min() {
  return std::make_unique<MinMin>(false);
}
std::unique_ptr<AllocationPolicy> make_max_min() {
  return std::make_unique<MinMin>(true);
}
std::unique_ptr<AllocationPolicy> make_random(std::uint64_t seed) {
  return std::make_unique<RandomPolicy>(seed);
}

std::vector<std::string> all_policy_names() {
  return {"fcfs",   "fcfs-bestfit", "sjf",     "ljf",    "fair-share",
          "edf",    "easy-backfill", "conservative-backfill", "heft",
          "min-min", "max-min", "random"};
}

std::unique_ptr<AllocationPolicy> make_policy(const std::string& name) {
  if (name == "fcfs") return make_fcfs();
  if (name == "fcfs-bestfit") return make_fcfs(Fit::kBest);
  if (name == "sjf") return make_sjf();
  if (name == "ljf") return make_ljf();
  if (name == "fair-share") return make_fair_share();
  if (name == "edf") return make_edf();
  if (name == "easy-backfill") return make_easy_backfilling();
  if (name == "conservative-backfill") return make_conservative_backfilling();
  if (name == "heft") return make_heft();
  if (name == "min-min") return make_min_min();
  if (name == "max-min") return make_max_min();
  if (name == "random") return make_random(42);
  throw std::invalid_argument("make_policy: unknown policy " + name);
}

}  // namespace mcs::sched
