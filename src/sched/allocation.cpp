#include "sched/allocation.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "sched/scoring.hpp"
#include "sim/random.hpp"

namespace mcs::sched {

bool order_fcfs(const ReadyTask& a, const ReadyTask& b) {
  if (a.job_submit != b.job_submit) return a.job_submit < b.job_submit;
  if (a.job != b.job) return a.job < b.job;
  return a.task_index < b.task_index;
}

bool order_sjf(const ReadyTask& a, const ReadyTask& b) {
  return a.work_seconds < b.work_seconds;
}

bool order_ljf(const ReadyTask& a, const ReadyTask& b) {
  return a.work_seconds > b.work_seconds;
}

bool order_edf(const ReadyTask& a, const ReadyTask& b) {
  if (a.deadline != b.deadline) return a.deadline < b.deadline;
  return order_fcfs(a, b);
}

bool order_rank(const ReadyTask& a, const ReadyTask& b) {
  return a.rank > b.rank;
}

namespace {

// Every queue-ordering policy (FCFS, SJF, LJF, fair-share, EDF, HEFT, EASY
// and conservative backfilling) is one OrderedPolicy skeleton that differs
// only in its queue walk, Fit and reservation depth; min-min and max-min
// choose machines through the same pick_machine, with HEFT's
// Fit::kEarliestFinish. PlannedCapacity, ReleaseProfile and pick_machine
// live in sched/scoring.hpp: the placement pass (K=4 planned capacity,
// node scoring, zone/anti-affinity admission) is shared with the engine,
// the fuzzer, and the benches.

using Handle = ReadyQueue::Handle;

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

/// The order a policy walks the ready queue in: the queue's live index for
/// one queue order, or a walk built into `scratch` from it (fair-share).
using QueueWalk = const std::vector<Handle>& (*)(const SchedulerView& view,
                                                 std::vector<Handle>& scratch);

template <QueueOrder Order>
const std::vector<Handle>& indexed(const SchedulerView& view,
                                   std::vector<Handle>&) {
  return view.ready->ordered(Order);
}

/// Fair-share: least-served user (consumed core-seconds at the start of the
/// round) first, then FCFS, then enqueue order. Usage moves every round, so
/// it is no index key: the walk is the FCFS index regrouped by usage. The
/// users present are ranked by usage, users with equal usage sharing a rank,
/// and a counting sort by rank, stable over the FCFS index, lays the walk
/// out — no comparison sort runs over the tasks.
const std::vector<Handle>& fair_share(const SchedulerView& view,
                                      std::vector<Handle>& out) {
  const ReadyQueue& queue = *view.ready;
  const std::vector<Handle>& fcfs = queue.ordered(order_fcfs);
  if (view.user_usage == nullptr) return fcfs;  // nobody has used anything
  const std::vector<double>& usage = *view.user_usage;
  // A user id past the usage table has used nothing; all such share `past`.
  const std::size_t past = usage.size();
  const auto user_of = [&](Handle h) {
    return std::min<std::size_t>(queue[h].user_id, past);
  };
  const auto usage_of = [&](std::size_t u) {
    return u < past ? usage[u] : 0.0;
  };
  constexpr std::size_t kAbsent = SIZE_MAX;
  std::vector<std::size_t> rank(past + 1, kAbsent);  // by user
  std::vector<std::size_t> present;
  present.reserve(past + 1);
  for (const Handle h : fcfs) {
    const std::size_t u = user_of(h);
    if (rank[u] == kAbsent) {
      rank[u] = 0;
      present.push_back(u);
    }
  }
  std::sort(present.begin(), present.end(),
            [&](std::size_t a, std::size_t b) {
              return usage_of(a) < usage_of(b);
            });
  std::size_t top = 0;  // the highest rank
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (i > 0 && usage_of(present[i]) != usage_of(present[i - 1])) ++top;
    rank[present[i]] = top;
  }
  if (top == 0) return fcfs;  // one usage level: the FCFS index as it stands
  // first[r]: rank r's task count at r + 1, then by prefix sum the position
  // of its first task.
  std::vector<std::size_t> first(top + 2, 0);
  for (const Handle h : fcfs) ++first[rank[user_of(h)] + 1];
  for (std::size_t r = 1; r <= top; ++r) first[r] += first[r - 1];
  out.resize(fcfs.size());
  for (const Handle h : fcfs) out[first[rank[user_of(h)]]++] = h;
  return out;
}

/// The one list-scheduling skeleton (DESIGN.md §9). Walk the ready queue
/// once in `walk` order: a task starts when pick_machine places it and it is
/// expected to end by the earliest reservation on that machine. A task that
/// cannot start takes a reservation at the earliest time some machine could
/// hold it (ReleaseProfile), while fewer than `depth` were granted this
/// round. Depth 0 is greedy list scheduling (FCFS, SJF, LJF, fair-share,
/// EDF, HEFT), depth 1 is EASY backfilling (only the blocked head is
/// protected) and SIZE_MAX is conservative backfilling (every blocked task
/// is) — Mu'alem & Feitelson's reservation depth. The queue's floor bounds
/// every queued demand from below and `take` only shrinks the planned
/// bound, so where the floor fits nowhere the walk stops, bit-identically
/// (DESIGN.md §9).
class OrderedPolicy final : public AllocationPolicy {
 public:
  OrderedPolicy(std::string name, QueueWalk walk, Fit fit, std::size_t depth)
      : name_(std::move(name)), walk_(walk), fit_(fit), depth_(depth) {}

  [[nodiscard]] std::string name() const override { return name_; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    const BorrowedPlan plan(view);
    PlannedCapacity& planned = *plan;
    const ReadyQueue& queue = *view.ready;
    const infra::ResourceVector floor = queue.floor();
    if (!planned.may_fit_anywhere(floor)) return {};
    // Built on the first reservation, so a depth-0 round never pays for
    // them. reservation_at: earliest reservation per machine id
    // (kTimeInfinity: none).
    std::optional<ReleaseProfile> profile;
    std::vector<sim::SimTime> reservation_at;
    std::size_t granted = 0;
    std::vector<Assignment> out;
    out.reserve(queue.size());
    for (const Handle h : walk_(view, scratch_)) {
      // Nothing left fits anywhere, so nothing can start or gate a start.
      if (!planned.may_fit_anywhere(floor)) break;
      const ReadyTask& t = queue[h];
      const auto m = pick_machine(planned, t, fit_, view);
      // Once a reservation exists, a start must be expected to end by the
      // earliest reservation on its machine.
      if (m && (granted == 0 ||
                sim::saturating_add(view.now,
                                    sim::from_seconds(t.work_seconds /
                                                      planned.speed(*m))) <=
                    reservation_at[*m])) {
        planned.take(*m, t.demand);
        out.push_back(Assignment{h, *m});
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
  QueueWalk walk_;
  Fit fit_;
  std::size_t depth_;  ///< reservations granted per round at most
  std::vector<Handle> scratch_;  ///< a walk the queue does not keep
};

std::unique_ptr<AllocationPolicy> ordered_policy(std::string name,
                                                 QueueWalk walk, Fit fit,
                                                 std::size_t depth = 0) {
  return std::make_unique<OrderedPolicy>(std::move(name), walk, fit, depth);
}

std::string fit_suffix(Fit fit) {
  switch (fit) {
    case Fit::kFirst: return "";
    case Fit::kBest: return "-bestfit";
    case Fit::kEarliestFinish: return "-earliest-finish";
  }
  return "";
}

// ---- min-min / max-min -----------------------------------------------------------

/// Min-min (max-min): each step places the unplaced task whose earliest
/// finish is smallest (largest), ties to the oldest, on its earliest-finish
/// machine (pick_machine with Fit::kEarliestFinish), until no task fits. A
/// step walks the queue's SJF (LJF) index.
/// On any machine a task finishes no sooner than work / fastest (no later
/// than work / slowest), a bound that only grows (shrinks) along the walk,
/// so the walk stops at the first task whose bound ranks after the
/// incumbent: no later task can beat or tie it (DESIGN.md §9).
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
    const ReadyQueue& queue = *view.ready;
    const infra::ResourceVector floor = queue.floor();
    if (!planned.may_fit_anywhere(floor)) return {};
    const std::vector<Handle>& walk =
        queue.ordered(max_first_ ? order_ljf : order_sjf);
    // The speed that bounds every finish: the fastest machine for min-min,
    // the slowest for max-min.
    double speed = max_first_ ? std::numeric_limits<double>::infinity() : 0.0;
    for (const infra::Machine* m : planned.machines()) {
      speed = max_first_ ? std::min(speed, m->speed_factor())
                         : std::max(speed, m->speed_factor());
    }
    // A task is settled once placed or once it fits nowhere: take() only
    // shrinks capacity and admission reads the fixed running set, so a task
    // with no machine has none for the rest of the call.
    settled_.assign(queue.handle_bound(), false);
    std::size_t first = 0;  // walk[0, first) is settled
    std::vector<Assignment> out;
    out.reserve(queue.size());
    while (planned.may_fit_anywhere(floor)) {
      while (first < walk.size() && settled_[walk[first]]) ++first;
      // The incumbent ranks by (finish, sequence).
      std::optional<Handle> chosen;
      infra::MachineId chosen_machine = 0;
      double chosen_finish = 0.0;
      for (std::size_t p = first; p < walk.size(); ++p) {
        const Handle h = walk[p];
        if (settled_[h]) continue;
        const ReadyTask& t = queue[h];
        if (chosen) {
          const double bound = t.work_seconds / speed;
          if (ranks_after(bound, chosen_finish)) break;
          // A bound equal to the incumbent's finish can at best tie it, and
          // a tie goes to the older task.
          if (bound == chosen_finish && queue.seq(h) > queue.seq(*chosen)) {
            continue;
          }
        }
        const auto m = pick_machine(planned, t, Fit::kEarliestFinish, view);
        if (!m) {
          settled_[h] = true;
          continue;
        }
        const double finish = t.work_seconds / planned.speed(*m);
        if (!chosen || ranks_after(chosen_finish, finish) ||
            (finish == chosen_finish && queue.seq(h) < queue.seq(*chosen))) {
          chosen = h;
          chosen_machine = *m;
          chosen_finish = finish;
        }
      }
      if (!chosen) break;
      settled_[*chosen] = true;
      planned.take(chosen_machine, queue[*chosen].demand);
      out.push_back(Assignment{*chosen, chosen_machine});
    }
    return out;
  }

 private:
  /// True when finish `a` ranks after finish `b`: later for min-min,
  /// earlier for max-min.
  [[nodiscard]] bool ranks_after(double a, double b) const {
    return max_first_ ? a < b : a > b;
  }

  bool max_first_;
  std::vector<bool> settled_;  ///< by handle, for the current call
};

// ---- random ------------------------------------------------------------------------

class RandomPolicy final : public AllocationPolicy {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }

  std::vector<Assignment> decide(const SchedulerView& view) override {
    const BorrowedPlan plan(view);
    PlannedCapacity& planned = *plan;
    const ReadyQueue& queue = *view.ready;
    // The shuffle permutes enqueue positions 0..Q-1: the digests pin the
    // RNG stream it draws, which depends on Q only, so it runs even when
    // nothing can be placed.
    order_.assign(queue.handles().begin(), queue.handles().end());
    rng_.shuffle(order_);
    const infra::ResourceVector floor = queue.floor();
    std::vector<Assignment> out;
    out.reserve(order_.size());
    options_.reserve(planned.machines().size());
    for (const Handle h : order_) {
      // Once the floor fits nowhere, no later task has a machine to draw.
      if (!planned.may_fit_anywhere(floor)) break;
      const ReadyTask& t = queue[h];
      if (!planned.may_fit_anywhere(t.demand)) continue;
      // Collect fitting machines, pick one uniformly.
      options_.clear();
      for (const infra::Machine* m : planned.machines()) {
        if (planned.fits(m->id(), t.demand) &&
            placement_allows(view.running, t, m->id())) {
          options_.push_back(m->id());
        }
      }
      if (options_.empty()) continue;
      const auto pick = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(options_.size()) - 1));
      planned.take(options_[pick], t.demand);
      out.push_back(Assignment{h, options_[pick]});
    }
    return out;
  }

 private:
  static constexpr std::uint64_t kSeed = 42;  ///< the digests pin its stream
  sim::Rng rng_{kSeed};
  std::vector<Handle> order_;               ///< this call's shuffled queue
  std::vector<infra::MachineId> options_;   ///< one task's fitting machines
};

}  // namespace

std::unique_ptr<AllocationPolicy> make_fcfs(Fit fit) {
  return ordered_policy("fcfs" + fit_suffix(fit), indexed<order_fcfs>, fit);
}
std::unique_ptr<AllocationPolicy> make_sjf() {
  return ordered_policy("sjf", indexed<order_sjf>, Fit::kFirst);
}
std::unique_ptr<AllocationPolicy> make_ljf() {
  return ordered_policy("ljf", indexed<order_ljf>, Fit::kFirst);
}
std::unique_ptr<AllocationPolicy> make_fair_share() {
  return ordered_policy("fair-share", fair_share, Fit::kFirst);
}
std::unique_ptr<AllocationPolicy> make_edf() {
  return ordered_policy("edf", indexed<order_edf>, Fit::kFirst);
}
std::unique_ptr<AllocationPolicy> make_easy_backfilling() {
  return ordered_policy("easy-backfill", indexed<order_fcfs>, Fit::kFirst, 1);
}
std::unique_ptr<AllocationPolicy> make_conservative_backfilling() {
  return ordered_policy("conservative-backfill", indexed<order_fcfs>,
                        Fit::kFirst, SIZE_MAX);
}
std::unique_ptr<AllocationPolicy> make_heft() {
  // Highest upward rank first; ties keep enqueue order.
  return ordered_policy("heft", indexed<order_rank>, Fit::kEarliestFinish);
}
std::unique_ptr<AllocationPolicy> make_min_min() {
  return std::make_unique<MinMin>(false);
}
std::unique_ptr<AllocationPolicy> make_max_min() {
  return std::make_unique<MinMin>(true);
}
std::unique_ptr<AllocationPolicy> make_random() {
  return std::make_unique<RandomPolicy>();
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
  if (name == "random") return make_random();
  throw std::invalid_argument("make_policy: unknown policy " + name);
}

}  // namespace mcs::sched
