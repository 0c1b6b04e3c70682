#include "sched/allocation.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "sched/scoring.hpp"
#include "sim/random.hpp"

namespace mcs::sched {

namespace {

// PlannedCapacity, ReleaseProfile and pick_machine live in sched/scoring.hpp:
// the placement pass (K=4 planned capacity, node scoring, zone/anti-affinity
// admission) is shared with the engine, the fuzzer, and the benches.

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

// Comparators for the ordered and backfilling policies.
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

/// Shared skeleton: order the ready queue by a comparator, then greedily
/// place under a fit heuristic.
template <typename Compare>
class OrderedPolicy final : public AllocationPolicy {
 public:
  OrderedPolicy(std::string name, Compare cmp, Fit fit)
      : name_(std::move(name)), cmp_(std::move(cmp)), fit_(fit) {}

  [[nodiscard]] std::string name() const override { return name_; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    PlannedCapacity planned(view.machines);
    const infra::ResourceVector floor = min_demand(*view.ready);
    if (!planned.may_fit_anywhere(floor)) return {};
    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    for (std::size_t idx : sorted_order(view, cmp_)) {
      if (!planned.may_fit_anywhere(floor)) break;
      const ReadyTask& t = (*view.ready)[idx];
      if (auto m = pick_machine(view.machines, planned, t, fit_, view)) {
        planned.take(*m, t.demand);
        out.push_back(Assignment{idx, *m});
      }
    }
    return out;
  }

 private:
  std::string name_;
  Compare cmp_;
  Fit fit_;
};

template <typename Compare>
std::unique_ptr<AllocationPolicy> ordered(std::string name, Compare cmp,
                                          Fit fit) {
  return std::make_unique<OrderedPolicy<Compare>>(std::move(name),
                                                  std::move(cmp), fit);
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

// ---- EASY backfilling --------------------------------------------------------

class EasyBackfilling final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "easy-backfill"; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    PlannedCapacity planned(view.machines);
    const infra::ResourceVector floor = min_demand(*view.ready);
    if (!planned.may_fit_anywhere(floor)) return {};
    const std::vector<std::size_t> order = sorted_order(view, FcfsCmp{});
    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    std::size_t head_pos = 0;

    // Greedily start the FCFS prefix.
    while (head_pos < order.size()) {
      const ReadyTask& t = (*view.ready)[order[head_pos]];
      auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
      if (!m) break;
      planned.take(*m, t.demand);
      out.push_back(Assignment{order[head_pos], *m});
      ++head_pos;
    }
    if (head_pos >= order.size() || !planned.may_fit_anywhere(floor)) {
      return out;  // nothing left that could backfill
    }

    // The head task cannot start: compute its reservation (shadow time) —
    // the earliest expected_end at which some machine could fit it,
    // assuming running tasks release their resources then.
    const ReadyTask& head = (*view.ready)[order[head_pos]];
    const auto [shadow, reserved_machine] =
        ReleaseProfile(view).reservation_for(head, view);

    // Backfill: later tasks may start now iff they fit AND
    // (a) their estimated completion is before the shadow time, or
    // (b) they avoid the reserved machine.
    for (std::size_t p = head_pos + 1; p < order.size(); ++p) {
      if (!planned.may_fit_anywhere(floor)) break;
      const ReadyTask& t = (*view.ready)[order[p]];
      auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
      if (!m) continue;
      const double speed = planned.speed(*m);
      const sim::SimTime est_end =
          view.now + sim::from_seconds(t.work_seconds / speed);
      const bool harmless = est_end <= shadow || *m != reserved_machine;
      if (harmless) {
        planned.take(*m, t.demand);
        out.push_back(Assignment{order[p], *m});
      }
    }
    return out;
  }
};

// ---- conservative backfilling ---------------------------------------------------

class ConservativeBackfilling final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override {
    return "conservative-backfill";
  }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    PlannedCapacity planned(view.machines);
    const infra::ResourceVector floor = min_demand(*view.ready);
    if (!planned.may_fit_anywhere(floor)) return {};
    const ReleaseProfile profile(view);
    // Earliest reservation start per machine id among queued-but-unstarted
    // tasks (kTimeInfinity: none); a backfill must complete before it.
    std::vector<sim::SimTime> reservation_at(planned.id_bound(),
                                             sim::kTimeInfinity);
    std::vector<Assignment> out;
    out.reserve(view.ready->size());

    for (std::size_t idx : sorted_order(view, FcfsCmp{})) {
      // Nothing left fits anywhere, so no later reservation can gate a
      // backfill this round.
      if (!planned.may_fit_anywhere(floor)) break;
      const ReadyTask& t = (*view.ready)[idx];
      auto m = pick_machine(view.machines, planned, t, Fit::kFirst, view);
      if (m) {
        // Starting now must not run past an existing reservation on this
        // machine (conservative guarantee: nobody already promised space
        // here is delayed).
        const sim::SimTime est_end =
            view.now + sim::from_seconds(t.work_seconds / planned.speed(*m));
        if (est_end <= reservation_at[*m]) {
          planned.take(*m, t.demand);
          out.push_back(Assignment{idx, *m});
          continue;
        }
      }
      // Cannot start: record this task's reservation so later (smaller)
      // tasks cannot delay it. One that can never fit anywhere gets
      // kTimeInfinity and records nothing.
      const auto [when, machine] = profile.reservation_for(t, view);
      reservation_at[machine] = std::min(reservation_at[machine], when);
    }
    return out;
  }
};

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
      if (!planned.may_fit_anywhere(t.demand)) continue;
      // Earliest-finish-time machine among those with room now.
      std::optional<infra::MachineId> best;
      double best_finish = std::numeric_limits<double>::max();
      for (const infra::Machine* m : view.machines) {
        if (!planned.fits(m->id(), t.demand)) continue;
        if (!placement_allows(view, t, m->id())) continue;
        const double finish = t.work_seconds / m->speed_factor();
        if (finish < best_finish) {
          best_finish = finish;
          best = m->id();
        }
      }
      if (best) {
        planned.take(*best, t.demand);
        out.push_back(Assignment{idx, *best});
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
      infra::MachineId chosen_machine = 0;
      double chosen_mct = 0.0;
      for (std::size_t i = 0; i < view.ready->size(); ++i) {
        if (taken[i]) continue;
        const ReadyTask& t = (*view.ready)[i];
        if (!planned.may_fit_anywhere(t.demand)) continue;
        double mct = std::numeric_limits<double>::max();
        std::optional<infra::MachineId> arg;
        for (const infra::Machine* m : view.machines) {
          if (!planned.fits(m->id(), t.demand)) continue;
        if (!placement_allows(view, t, m->id())) continue;
          const double c = t.work_seconds / m->speed_factor();
          if (c < mct) {
            mct = c;
            arg = m->id();
          }
        }
        if (!arg) continue;
        const bool better =
            !chosen || (max_first_ ? mct > chosen_mct : mct < chosen_mct);
        if (better) {
          chosen = i;
          chosen_machine = *arg;
          chosen_mct = mct;
        }
      }
      if (!chosen) break;
      taken[*chosen] = true;
      planned.take(chosen_machine, (*view.ready)[*chosen].demand);
      out.push_back(Assignment{*chosen, chosen_machine});
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
  return std::make_unique<EasyBackfilling>();
}
std::unique_ptr<AllocationPolicy> make_conservative_backfilling() {
  return std::make_unique<ConservativeBackfilling>();
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
