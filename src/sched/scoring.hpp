// The placement pass shared by every allocation policy: planned-capacity
// tracking with an O(1) can't-fit-anywhere reject, pluggable node scoring,
// zone label filters, and anti-affinity spread constraints (C4).
//
// Scoring follows the YT/YP scheduler's EPodNodeScoreType lineage (see
// SNIPPETS.md): a score is computed per candidate machine from planned free
// capacity — pure arithmetic, allocation-free, lint-hot — and the minimum
// score wins (ties break to the lowest machine id, keeping decisions
// deterministic and thread-count invariant). pick_machine is one loop over
// (fits, admissible, score): under `NodeScorePolicy::kNone` the score is the
// negated Fit heuristic, which makes the same choices as the legacy
// maximizing loop; the digest goldens (tests/goldens/) pin that equivalence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/resources.hpp"
#include "infra/topology.hpp"
#include "sched/allocation.hpp"

namespace mcs::sched {

// NodeScorePolicy / PlacementContext / AaCount live in sched/allocation.hpp
// (they are part of the SchedulerView contract every policy sees); this
// header owns the machinery that consumes them.

[[nodiscard]] const char* to_string(NodeScorePolicy p);
/// Parses the to_string name; returns kNone for unknown input (forward
/// compatibility for spec text files).
[[nodiscard]] NodeScorePolicy score_policy_from_string(const std::string& s);
/// All scoring policies including kNone (for sweeps/benches).
[[nodiscard]] std::vector<NodeScorePolicy> all_score_policies();

/// Tracks capacity planned within one decide() round so batches stay
/// feasible. Dense vectors indexed by machine id (machine ids are dense
/// per datacenter), plus a componentwise free-capacity upper bound that
/// lets pick_machine reject can't-fit-anywhere demands in O(1) — the
/// difference between O(placements * machines) and O(queue * machines)
/// per round on a saturated floor. Generalized over all K=4 resource
/// dimensions; the incremental dominant-component bound survives the move
/// to vectors (DESIGN.md §13).
class PlannedCapacity {
 public:
  explicit PlannedCapacity(const std::vector<const infra::Machine*>& machines) {
    infra::MachineId max_id = 0;
    for (const infra::Machine* m : machines) max_id = std::max(max_id, m->id());
    free_.assign(max_id + 1, infra::ResourceVector{});
    cap_.assign(max_id + 1, infra::ResourceVector{});
    speed_.assign(max_id + 1, 1.0);
    present_.assign(max_id + 1, 0);
    for (const infra::Machine* m : machines) {
      free_[m->id()] = m->available();
      cap_[m->id()] = m->capacity();
      speed_[m->id()] = m->speed_factor();
      present_[m->id()] = 1;
    }
    stale_ = kAllStale;  // first may_fit_anywhere() computes the real bound
  }

  [[nodiscard]] bool fits(infra::MachineId id,
                          const infra::ResourceVector& r) const {
    return id < present_.size() && present_[id] != 0 &&
           r.fits_within(free_[id]);
  }

  /// Incremental headroom update: O(K) per call. `max_free_` stays an exact
  /// componentwise maximum as long as at least one machine still sits at it
  /// (`argmax_n_` counts them — crucial on uniform fleets, where first-fit
  /// opens a fresh argmax machine per placement and a naive "argmax shrank →
  /// re-scan" rule would trigger an O(machines) pass each time). Only when
  /// the *last* machine at the bound shrinks does the component go stale and
  /// get lazily re-scanned on the next may_fit_anywhere(). Allocation-free:
  /// reachable from the engine's hot scheduling loop (H3).
  // mcs-lint: hot
  void take(infra::MachineId id, const infra::ResourceVector& r) {
    infra::ResourceVector& f = free_[id];
    for (std::size_t d = 0; d < core::kResourceDims; ++d) {
      take_component(f[d], r[d], max_free_[d], argmax_n_[d], 1u << d);
    }
  }

  [[nodiscard]] double speed(infra::MachineId id) const { return speed_[id]; }
  /// One past the round's largest machine id: the size of a dense table.
  [[nodiscard]] std::size_t id_bound() const { return present_.size(); }

  [[nodiscard]] const infra::ResourceVector& free_on(
      infra::MachineId id) const {
    return free_[id];
  }
  [[nodiscard]] const infra::ResourceVector& capacity_on(
      infra::MachineId id) const {
    return cap_[id];
  }

  /// Necessary condition for `r` to fit on *some* machine: each component
  /// must fit within the componentwise max of free capacity. O(1) reject
  /// unless an argmax machine shrank since the last call (see take()).
  // mcs-lint: hot
  [[nodiscard]] bool may_fit_anywhere(const infra::ResourceVector& r) const {
    if (stale_ != 0) refresh_bound();
    return r.fits_within(max_free_);
  }

 private:
  static constexpr unsigned kAllStale = (1u << core::kResourceDims) - 1;

  // The bound is *exact* at every read: while `count > 0` some machine's
  // free capacity equals it (and none exceeds it), and when the count hits
  // zero the component is re-scanned before the next read. Decisions are
  // therefore bit-identical to an eager per-take recompute.
  // mcs-lint: hot
  void take_component(double& free, double delta, double& bound,
                      std::size_t& count, unsigned stale_bit) {
    if (delta == 0.0) return;
    const double old = free;
    free -= delta;
    if (free > bound) {
      bound = free;  // raised past the bound: this machine is the sole argmax
      count = 1;
    } else if (free == bound) {
      ++count;  // released back to exactly the bound: joins the argmax set
    } else if (old == bound) {
      if (--count == 0) stale_ |= stale_bit;  // last argmax shrank; re-scan
    }
  }

  /// Re-scans only the stale components (each an O(machines) pass finding
  /// the max *and* its multiplicity). Called from const may_fit_anywhere(),
  /// hence the mutable bound state.
  void refresh_bound() const {
    for (std::size_t d = 0; d < core::kResourceDims; ++d) {
      if ((stale_ & (1u << d)) != 0) refresh_component(d);
    }
    stale_ = 0;
  }

  void refresh_component(std::size_t d) const {
    double v = 0.0;
    std::size_t n = 0;
    for (infra::MachineId id = 0; id < present_.size(); ++id) {
      if (present_[id] == 0) continue;
      const double f = free_[id][d];
      if (f > v) {
        v = f;
        n = 1;
      } else if (f == v) {
        ++n;
      }
    }
    max_free_[d] = v;
    argmax_n_[d] = n;
  }

  std::vector<infra::ResourceVector> free_;
  std::vector<infra::ResourceVector> cap_;
  std::vector<double> speed_;
  std::vector<std::uint8_t> present_;
  mutable infra::ResourceVector max_free_;
  mutable std::size_t argmax_n_[core::kResourceDims] = {0, 0, 0, 0};
  mutable unsigned stale_ = kAllStale;
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
/// reservation: running tasks bucketed by machine id (CSR layout),
/// each bucket stable-sorted by expected_end. A reservation query walks one
/// bucket per admissible machine instead of re-filtering and re-sorting the
/// whole running set per machine (DESIGN.md §9).
class ReleaseProfile {
 public:
  explicit ReleaseProfile(const SchedulerView& view) {
    infra::MachineId max_id = 0;
    for (const infra::Machine* m : view.machines) {
      max_id = std::max(max_id, m->id());
    }
    // Only the view's machines are walked: tasks past its largest id (on a
    // draining machine) are dropped.
    by_end_.reserve(view.running->size());
    for (const RunningView& r : *view.running) {
      if (r.machine <= max_id) by_end_.push_back(&r);
    }
    std::stable_sort(by_end_.begin(), by_end_.end(),
                     [](const RunningView* a, const RunningView* b) {
                       return a->machine != b->machine
                                  ? a->machine < b->machine
                                  : a->expected_end < b->expected_end;
                     });
    begin_.assign(max_id + 2, 0);
    for (const RunningView* r : by_end_) ++begin_[r->machine + 1];
    for (std::size_t i = 1; i < begin_.size(); ++i) begin_[i] += begin_[i - 1];
  }

  /// Earliest time at which `t` is expected to fit on some admissible
  /// machine of `view` (the view this profile was built from), assuming
  /// running tasks release their resources at expected_end, and that
  /// machine's id; kTimeInfinity when no machine can ever hold it.
  // mcs-lint: hot
  [[nodiscard]] std::pair<sim::SimTime, infra::MachineId> reservation_for(
      const ReadyTask& t, const SchedulerView& view) const {
    sim::SimTime best_time = sim::kTimeInfinity;
    infra::MachineId best_machine = 0;
    for (const infra::Machine* m : view.machines) {
      if (!t.demand.fits_within(m->capacity())) continue;
      if (!machine_in_zone(t, m->id())) continue;
      // Release this machine's tasks in end-time order until `t` fits.
      infra::ResourceVector free = m->available();
      sim::SimTime when = view.now;
      bool fits = t.demand.fits_within(free);
      for (std::size_t i = begin_[m->id()]; !fits && i < begin_[m->id() + 1];
           ++i) {
        free += by_end_[i]->demand;
        when = by_end_[i]->expected_end;
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
  std::vector<const RunningView*> by_end_;  ///< by machine id, then end time
  std::vector<std::size_t> begin_;  ///< bucket of id: [begin_[id], begin_[id+1])
};

/// Running-task count of (job_slot, machine) in the engine-built table
/// (sorted by job_slot then machine); 0 when absent or no table.
// mcs-lint: hot
[[nodiscard]] std::uint32_t aa_count(const std::vector<AaCount>& table,
                                     std::uint32_t job_slot,
                                     infra::MachineId machine);

/// Zone + anti-affinity admission for one (task, machine) pair. Resource
/// fit is PlannedCapacity's job; this is everything else.
// mcs-lint: hot
[[nodiscard]] bool placement_allows(const SchedulerView& view,
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

/// Machine choice for one task: the minimum score over machines with
/// planned room that admit `t` (zone and anti-affinity), ties to the lowest
/// machine id. The score is the view's NodeScorePolicy, or without one the
/// negated `fit` heuristic; unscored kFirst takes the first such machine.
[[nodiscard]] std::optional<infra::MachineId> pick_machine(
    const std::vector<const infra::Machine*>& machines,
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
  [[nodiscard]] std::size_t hits() const { return hits_; }
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
