#include "sched/allocation.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "sched/scoring.hpp"
#include "sim/random.hpp"

namespace mcs::sched {

bool order_fcfs(const ReadyTask& a, const ReadyTask& b, const SchedulerView&) {
  if (a.job_submit != b.job_submit) return a.job_submit < b.job_submit;
  if (a.job != b.job) return a.job < b.job;
  return a.task_index < b.task_index;
}

bool order_sjf(const ReadyTask& a, const ReadyTask& b, const SchedulerView&) {
  return a.work_seconds < b.work_seconds;
}

bool order_ljf(const ReadyTask& a, const ReadyTask& b, const SchedulerView&) {
  return a.work_seconds > b.work_seconds;
}

namespace {

// Every queue-ordering policy (FCFS, SJF, LJF, fair-share, EDF, EASY and
// conservative backfilling) is one OrderedPolicy skeleton that differs only
// in its queue order, Fit heuristic and reservation depth; HEFT and MinMin
// share one earliest-finish scan. PlannedCapacity, ReleaseProfile and
// pick_machine live in sched/scoring.hpp: the placement pass (K=4 planned
// capacity, node scoring, zone/anti-affinity admission) is shared with the
// engine, the fuzzer, and the benches.

using QueueOrder = bool (*)(const ReadyTask&, const ReadyTask&,
                            const SchedulerView&);

/// The view's planned capacity, borrowed for one decide(): every row the
/// policy takes from is restored to the machines' live state on exit, even
/// when decide() throws, so the engine's mirror stays as it was lent.
class BorrowedPlan {
 public:
  explicit BorrowedPlan(const SchedulerView& view) : planned_(view.planned) {
    if (planned_ == nullptr) {
      throw std::invalid_argument("decide: the view has no planned capacity");
    }
  }
  ~BorrowedPlan() { planned_->restore(); }
  BorrowedPlan(const BorrowedPlan&) = delete;
  BorrowedPlan& operator=(const BorrowedPlan&) = delete;

  PlannedCapacity& operator*() const { return *planned_; }

 private:
  PlannedCapacity* planned_;
};

/// Ready-queue indices stable-sorted by `Order` (ties keep queue order).
/// A template argument, so every comparison is a direct, inlinable call.
template <QueueOrder Order>
std::vector<std::size_t> sorted_order(const SchedulerView& view) {
  std::vector<std::size_t> order(view.ready->size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return Order((*view.ready)[a], (*view.ready)[b], view);
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

/// Fair-share: least-served user (consumed core-seconds) first, then FCFS.
bool order_fair_share(const ReadyTask& a, const ReadyTask& b,
                      const SchedulerView& view) {
  double ua = 0.0, ub = 0.0;
  if (view.user_usage != nullptr) {
    const std::vector<double>& usage = *view.user_usage;
    if (a.user_id < usage.size()) ua = usage[a.user_id];
    if (b.user_id < usage.size()) ub = usage[b.user_id];
  }
  if (ua != ub) return ua < ub;
  return order_fcfs(a, b, view);
}

/// EDF: earliest deadline first, then FCFS.
bool order_edf(const ReadyTask& a, const ReadyTask& b,
               const SchedulerView& view) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return order_fcfs(a, b, view);
}

/// HEFT: highest upward rank first.
bool order_rank(const ReadyTask& a, const ReadyTask& b, const SchedulerView&) {
  return a.rank > b.rank;
}

/// The one list-scheduling skeleton (DESIGN.md §9). Order the ready queue
/// by `Order` and walk it once: a task starts when pick_machine places it and
/// it is expected to end by the earliest reservation on that machine. A task
/// that cannot start takes a reservation at the earliest time some machine
/// could hold it (ReleaseProfile), while fewer than `depth` were granted this
/// round. Depth 0 is greedy list scheduling (FCFS/SJF/LJF/fair-share/EDF),
/// depth 1 is EASY backfilling (only the blocked head is protected) and
/// SIZE_MAX is conservative backfilling (every blocked task is) — Mu'alem &
/// Feitelson's reservation depth.
template <QueueOrder Order>
class OrderedPolicy final : public AllocationPolicy {
 public:
  OrderedPolicy(std::string name, Fit fit, std::size_t depth)
      : name_(std::move(name)), fit_(fit), depth_(depth) {}

  [[nodiscard]] std::string name() const override { return name_; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    const BorrowedPlan plan(view);
    PlannedCapacity& planned = *plan;
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
    for (std::size_t idx : sorted_order<Order>(view)) {
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
  Fit fit_;
  std::size_t depth_;  ///< reservations granted per round at most
};

template <QueueOrder Order>
std::unique_ptr<AllocationPolicy> ordered(std::string name, Fit fit,
                                          std::size_t depth = 0) {
  return std::make_unique<OrderedPolicy<Order>>(std::move(name), fit, depth);
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
    if (!placement_allows(view.running, t, m->id())) continue;
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
    const BorrowedPlan plan(view);
    PlannedCapacity& planned = *plan;
    const infra::ResourceVector floor = min_demand(*view.ready);
    if (!planned.may_fit_anywhere(floor)) return {};
    std::vector<Assignment> out;
    out.reserve(view.ready->size());
    // Highest upward rank first; ties keep queue order.
    for (std::size_t idx : sorted_order<order_rank>(view)) {
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
    const BorrowedPlan plan(view);
    PlannedCapacity& planned = *plan;
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
    const BorrowedPlan plan(view);
    PlannedCapacity& planned = *plan;
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
            placement_allows(view.running, t, m->id())) {
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
  return ordered<order_fcfs>("fcfs" + fit_suffix(fit), fit);
}
std::unique_ptr<AllocationPolicy> make_sjf(Fit fit) {
  return ordered<order_sjf>("sjf" + fit_suffix(fit), fit);
}
std::unique_ptr<AllocationPolicy> make_ljf(Fit fit) {
  return ordered<order_ljf>("ljf" + fit_suffix(fit), fit);
}
std::unique_ptr<AllocationPolicy> make_fair_share(Fit fit) {
  return ordered<order_fair_share>("fair-share" + fit_suffix(fit), fit);
}
std::unique_ptr<AllocationPolicy> make_edf(Fit fit) {
  return ordered<order_edf>("edf" + fit_suffix(fit), fit);
}
std::unique_ptr<AllocationPolicy> make_easy_backfilling() {
  return ordered<order_fcfs>("easy-backfill", Fit::kFirst, 1);
}
std::unique_ptr<AllocationPolicy> make_conservative_backfilling() {
  return ordered<order_fcfs>("conservative-backfill", Fit::kFirst, SIZE_MAX);
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
