// The placement pass shared by every allocation policy: planned-capacity
// tracking with an O(1) can't-fit-anywhere reject, pluggable node scoring,
// zone label filters, and anti-affinity spread constraints (C4).
//
// Scoring follows the YT/YP scheduler's EPodNodeScoreType lineage (see
// SNIPPETS.md): a score is computed per candidate machine from planned free
// capacity — pure arithmetic, allocation-free, lint-hot — and the minimum
// score wins (ties break to the lowest machine id, keeping decisions
// deterministic and thread-count invariant). pick_machine is one loop over
// (fits, admissible, score) for every policy: under `NodeScorePolicy::kNone`
// the score is the Fit's (leftover cores, or HEFT's run time), and the
// digest goldens (tests/goldens/) pin the choices it makes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/resources.hpp"
#include "infra/topology.hpp"
#include "sched/allocation.hpp"
#include "sched/running_set.hpp"

namespace mcs::sched {

// NodeScorePolicy / PlacementContext live in sched/allocation.hpp (they are
// part of the SchedulerView contract every policy sees); this header owns
// the machinery that consumes them.

[[nodiscard]] const char* to_string(NodeScorePolicy p);
/// Parses the to_string name; returns kNone for unknown input (forward
/// compatibility for spec text files).
[[nodiscard]] NodeScorePolicy score_policy_from_string(const std::string& s);

/// The machines a round may place on and their planned free capacity: the
/// engine keeps one across rounds as a live mirror of its usable,
/// non-draining machines, and a policy's decide() takes from it, then
/// restore()s it. Its machine list is the one every policy reads. Dense
/// vectors indexed by machine id (dense per datacenter), plus the
/// componentwise maximum of the rows, a core::CountedExtreme, that lets
/// pick_machine reject can't-fit-anywhere demands in O(1) — the difference
/// between O(placements * machines) and O(queue * machines) per round on a
/// saturated floor (DESIGN.md §12, §13).
class PlannedCapacity {
 public:
  PlannedCapacity() = default;
  explicit PlannedCapacity(std::vector<const infra::Machine*> machines)
      : machines_(std::move(machines)) {
    infra::MachineId max_id = 0;
    for (const infra::Machine* m : machines_) max_id = std::max(max_id, m->id());
    const std::size_t rows = max_id + std::size_t{1};
    free_.assign(rows, infra::ResourceVector{});
    machine_.assign(rows, nullptr);
    logged_.assign(rows, 0);
    log_.assign(rows, 0);  // each id is logged at most once
    for (const infra::Machine* m : machines_) {
      free_[m->id()] = m->available();
      machine_[m->id()] = m;
      max_free_.enter(free_[m->id()]);
    }
  }

  [[nodiscard]] bool fits(infra::MachineId id,
                          const infra::ResourceVector& r) const {
    return id < machine_.size() && machine_[id] != nullptr &&
           r.fits_within(free_[id]);
  }

  /// Plans `r` on machine `id`: O(K), and logged for restore().
  /// Allocation-free: the log was sized at construction. Reachable from
  /// the engine's hot scheduling loop (H3).
  // mcs-lint: hot
  void take(infra::MachineId id, const infra::ResourceVector& r) {
    if (logged_[id] == 0) {
      logged_[id] = 1;
      log_[logged_n_++] = id;
    }
    infra::ResourceVector& f = free_[id];
    max_free_.leave(f);
    f -= r;
    max_free_.enter(f);
  }

  /// Re-reads machine `id`'s live available() into its row, moving the
  /// bound in either direction. Does nothing for a machine this structure
  /// does not hold. The row is re-read, never re-computed from the change
  /// that caused it: `(cap - used) - d` and `cap - (used + d)` can differ
  /// in the last bit, and fits_within compares at exact boundaries.
  // mcs-lint: hot
  void refresh(infra::MachineId id) {
    if (id >= machine_.size() || machine_[id] == nullptr) return;
    max_free_.leave(free_[id]);
    free_[id] = machine_[id]->available();
    max_free_.enter(free_[id]);
  }

  /// Refreshes every machine take() touched since the last restore(): the
  /// rows return to the machines' live state, undoing one decide()'s plan.
  // mcs-lint: hot
  void restore() {
    for (std::size_t i = 0; i < logged_n_; ++i) {
      logged_[log_[i]] = 0;
      refresh(log_[i]);
    }
    logged_n_ = 0;
  }

  /// The distinct machines held, in the order given (the engine's: by id).
  [[nodiscard]] const std::vector<const infra::Machine*>& machines() const {
    return machines_;
  }

  /// Speed and capacity never change, so they are read from the machine.
  [[nodiscard]] double speed(infra::MachineId id) const {
    return machine_[id]->speed_factor();
  }
  /// One past the largest machine id held: the size of a dense table.
  [[nodiscard]] std::size_t id_bound() const { return machine_.size(); }

  [[nodiscard]] const infra::ResourceVector& free_on(
      infra::MachineId id) const {
    return free_[id];
  }
  [[nodiscard]] const infra::ResourceVector& capacity_on(
      infra::MachineId id) const {
    return machine_[id]->capacity();
  }

  /// Necessary condition for `r` to fit on *some* machine: each component
  /// must fit within the componentwise max of free capacity. O(1) unless
  /// the last row at the max shrank since the last call.
  // mcs-lint: hot
  [[nodiscard]] bool may_fit_anywhere(const infra::ResourceVector& r) const {
    return r.fits_within(max_free_.read([this](const auto& visit) {
      for (const infra::Machine* m : machines_) visit(free_[m->id()]);
    }));
  }

 private:
  std::vector<const infra::Machine*> machines_;
  std::vector<infra::ResourceVector> free_;
  /// id -> the machine whose row this is; null when absent.
  std::vector<const infra::Machine*> machine_;
  /// take()'s log: the ids taken from since the last restore(), each once.
  std::vector<infra::MachineId> log_;
  std::vector<std::uint8_t> logged_;
  std::size_t logged_n_ = 0;
  /// The componentwise max of the rows (and of 0), kept by take() and
  /// refresh() and rescanned by the const may_fit_anywhere().
  mutable core::CountedExtreme<core::Extreme::kMax> max_free_;
};

/// True when `t`'s zone label filter (if any) admits machine `id`. Machines
/// beyond the mask (added after the mask was built) are conservatively
/// excluded.
// mcs-lint: hot
[[nodiscard]] inline bool machine_in_zone(const ReadyTask& t,
                                          infra::MachineId id) {
  if (t.zone_mask == nullptr) return true;
  const std::size_t word = id >> 6;
  return word < t.zone_words &&
         (t.zone_mask[word] >> (id & 63) & 1) != 0;
}

/// The running set's release order, built on a backfilling round's first
/// reservation: the tasks on each of the view's machines, read from that
/// machine's list and sorted by (expected_end, key) — the order a stable
/// sort of the key-ordered set gives. A reservation query walks one bucket
/// per admissible machine (DESIGN.md §9).
class ReleaseProfile {
 public:
  explicit ReleaseProfile(const SchedulerView& view) {
    const RunningSet& running = *view.running;
    const auto& machines = view.planned->machines();
    begin_.reserve(machines.size() + 1);
    begin_.push_back(0);
    for (const infra::Machine* m : machines) {
      const std::size_t first = by_end_.size();
      running.for_each_on(m->id(), [&](std::uint32_t key, const RunningTask&) {
        by_end_.push_back(key);
      });
      std::sort(by_end_.begin() + static_cast<std::ptrdiff_t>(first),
                by_end_.end(), [&running](std::uint32_t a, std::uint32_t b) {
                  const sim::SimTime ea = running[a].expected_end;
                  const sim::SimTime eb = running[b].expected_end;
                  return ea != eb ? ea < eb : a < b;
                });
      begin_.push_back(by_end_.size());
    }
  }

  /// Earliest time at which `t` is expected to fit on some admissible
  /// machine of `view` (the view this profile was built from), assuming
  /// running tasks release their resources at expected_end, and that
  /// machine's id; kTimeInfinity when no machine can ever hold it.
  // mcs-lint: hot
  [[nodiscard]] std::pair<sim::SimTime, infra::MachineId> reservation_for(
      const ReadyTask& t, const SchedulerView& view) const {
    const auto& machines = view.planned->machines();
    sim::SimTime best_time = sim::kTimeInfinity;
    infra::MachineId best_machine = 0;
    for (std::size_t v = 0; v < machines.size(); ++v) {
      const infra::Machine* m = machines[v];
      if (!t.demand.fits_within(m->capacity())) continue;
      if (!machine_in_zone(t, m->id())) continue;
      // Release this machine's tasks in end-time order until `t` fits.
      infra::ResourceVector free = m->available();
      sim::SimTime when = view.now;
      bool fits = t.demand.fits_within(free);
      for (std::size_t i = begin_[v]; !fits && i < begin_[v + 1]; ++i) {
        const RunningTask& r = (*view.running)[by_end_[i]];
        free += r.held;
        when = r.expected_end;
        fits = t.demand.fits_within(free);
      }
      if (fits && when < best_time) {
        best_time = when;
        best_machine = m->id();
      }
    }
    return {best_time, best_machine};
  }

 private:
  std::vector<std::uint32_t> by_end_;  ///< running keys, bucket by bucket
  /// Bucket of the view's machines()[v]: by_end_[begin_[v], begin_[v + 1]).
  std::vector<std::size_t> begin_;
};

/// Zone + anti-affinity admission for one (task, machine) pair, counting
/// the job's tasks on the machine in `running` (null: nothing runs).
/// Resource fit is PlannedCapacity's job; this is everything else.
// mcs-lint: hot
[[nodiscard]] bool placement_allows(const RunningSet* running,
                                    const ReadyTask& t, infra::MachineId id);

/// Score of placing `demand` on machine `id` under planned free capacity
/// (lower is better). Pure arithmetic over planned state — the lint-hot,
/// allocation-free kernel of the scoring pass.
// mcs-lint: hot
[[nodiscard]] double score_machine(NodeScorePolicy policy, std::uint64_t salt,
                                   workload::JobId job,
                                   const PlannedCapacity& planned,
                                   infra::MachineId id,
                                   const infra::ResourceVector& demand);

/// Machine choice for one task: the minimum score over `planned`'s machines
/// with planned room that admit `t` (zone and anti-affinity), ties to the
/// lowest machine id. Fit::kEarliestFinish scores the run time work /
/// speed, and only a score below DBL_MAX wins. The capacity Fits score by
/// the view's NodeScorePolicy, or without one by `fit`: kBest the cores left
/// over, kFirst the first such machine.
[[nodiscard]] std::optional<infra::MachineId> pick_machine(
    const PlannedCapacity& planned, const ReadyTask& t, Fit fit,
    const SchedulerView& view);

/// Zone label-filter cache: comma-separated zone expressions resolved to
/// machine-id bitsets, memoized per expression (submit-time only — masks
/// are rebuilt when the fleet grows, never on the scheduling hot path).
class LabelFilterCache {
 public:
  /// Bitset over machine ids whose zone is in the comma-separated list.
  /// The returned reference is stable for the cache's lifetime.
  const std::vector<std::uint64_t>& mask_for(const std::string& zones,
                                             const infra::Datacenter& dc);

  [[nodiscard]] std::size_t size() const { return cache_.size(); }
  // mcs-lint: allow(R1) — LabelFilterCacheTest.MemoizesPerExpression
  // (tests/scoring_test.cpp) observes the memoization through them.
  [[nodiscard]] std::size_t hits() const { return hits_; }
  // mcs-lint: allow(R1) — as hits().
  [[nodiscard]] std::size_t misses() const { return misses_; }

 private:
  struct Entry {
    std::vector<std::uint64_t> mask;
    std::size_t machine_count = 0;  ///< fleet size the mask was built for
  };
  std::map<std::string, Entry> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace mcs::sched
