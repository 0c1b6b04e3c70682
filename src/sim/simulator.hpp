// Deterministic discrete-event simulation kernel.
//
// The paper (C15, §3.3 "Experimentation and simulation") argues that
// simulation is the primary community instrument for studying computer
// ecosystems; every subsystem in this repository runs on this kernel, so
// its per-event cost is the floor under every experiment (E1–E12) and the
// ceiling on ecosystem scale (ROADMAP item 3: 1M machines / 10M jobs).
//
// Design choices:
//  - Virtual time is an integer count of microseconds (SimTime). Integer time
//    keeps event ordering exact and runs reproducible across platforms.
//  - Events at one time run in scheduling order, so a simulation is a pure
//    function of its inputs and RNG seed.
//  - Single-threaded by design: determinism and debuggability outrank kernel
//    speed for this scale of model (see bench/micro_sim for throughput).
//  - The hot path is allocation-free: callbacks are sim::Callback, i.e.
//    core::UniqueFunction<void()> (inline storage for typical capturing
//    lambdas, heap only as a fallback), and queue entries are 16-byte PODs
//    whose callbacks live in a slot table — no queue operation ever moves
//    a closure.
//  - The event queue is one hierarchical timing wheel (11 levels × 64
//    power-of-two buckets over sim-time digits, DESIGN.md §12). Its 66
//    bits span all of non-negative SimTime, so no event is ever beyond it;
//    insert, cascade and pop are O(1). Levels are time-ordered and each
//    bucket is a FIFO, so the wheel pops events in the one global
//    (at, seq) order — time, then scheduling order — without storing or
//    comparing a sequence number.
//  - Cancellation is O(1) lazy deletion: a handle carries (slot, generation)
//    and cancelling bumps the slot generation; stale entries are discarded
//    with one array load when they surface, no hash lookups.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/callback.hpp"

namespace mcs::sim {

/// Virtual time in microseconds since simulation start.
using SimTime = std::int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1'000;
constexpr SimTime kSecond = 1'000'000;
constexpr SimTime kMinute = 60 * kSecond;
constexpr SimTime kHour = 60 * kMinute;
constexpr SimTime kDay = 24 * kHour;
constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::max();

/// Converts a duration in (floating point) seconds to SimTime, rounding to
/// the nearest microsecond. Negative durations clamp to zero.
SimTime from_seconds(double seconds);

/// Converts SimTime to floating point seconds (for reporting only).
double to_seconds(SimTime t);

/// `at + delay` for non-negative operands, saturating at kTimeInfinity
/// instead of overflowing: a time past the clock's range is never.
[[nodiscard]] constexpr SimTime saturating_add(SimTime at, SimTime delay) {
  return delay > kTimeInfinity - at ? kTimeInfinity : at + delay;
}

/// The event callback: core::UniqueFunction<void()>, a small-buffer-
/// optimized move-only callable. Closures up to kInlineSize bytes (the
/// common case: a few captured pointers/values) are stored inline; larger
/// ones fall back to a single heap allocation. Unlike std::function it also
/// accepts move-only closures (e.g. capturing a std::unique_ptr).
using Callback = core::UniqueFunction<void()>;

/// Opaque handle used to cancel a scheduled event. Internally a
/// (slot, generation) pair: generations make handles single-use even when
/// the kernel recycles the slot for a later event.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return gen_ != 0; }

 private:
  friend class Simulator;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Observation hook for correctness harnesses (src/check): notified after
/// the kernel commits to an event (clock advanced, stale entries skipped)
/// and before its callback runs. The default null hook costs one predicted
/// branch per event on the kernel's hot path — cheap enough to stay
/// compiled into every build (the check layer's ratchet relies on that).
class SimHook {
 public:
  virtual ~SimHook() = default;
  /// `at` is the event's (committed) execution time == now(); `executed`
  /// counts this event. Fires before the event callback runs.
  /// Implementations must not mutate the simulator.
  virtual void on_event(SimTime at, std::uint64_t executed) = 0;
  /// Fires after the event callback returns — the quiescent point where
  /// model state must be fully consistent again (a single event may apply
  /// several nested transitions; invariants hold at its end, not midway).
  /// Not called if the callback throws.
  virtual void on_event_end(SimTime at, std::uint64_t executed) = 0;
};

/// The discrete-event engine. Owns the virtual clock and the event queue.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `at` (>= now()).
  /// Events at equal times run in scheduling order. The callable is
  /// constructed directly in its kernel slot (no intermediate Callback).
  template <typename F>
  EventHandle schedule_at(SimTime at, F&& fn) {
    if (at < now_) throw_time_in_past();
    // Exception safety by ordering, not by try/catch: the slot is only
    // committed (freelist popped / counter bumped) after the callable's
    // constructor has succeeded, so a throwing copy leaves no trace.
    std::uint32_t slot;
    if (free_head_ != kNoSlot) {
      slot = free_head_;
      slot_ref(slot).fn.emplace(std::forward<F>(fn));
      free_head_ = slot_ref(slot).next_free;
    } else {
      if (slot_count_ == slot_capacity_) grow_slots();
      slot = slot_count_;
      slot_ref(slot).fn.emplace(std::forward<F>(fn));
      ++slot_count_;
    }
    return arm(at, slot);
  }

  /// Schedules `fn` to run `delay` after now().
  template <typename F>
  EventHandle schedule_after(SimTime delay, F&& fn) {
    if (delay < 0) delay = 0;
    return schedule_at(saturating_add(now_, delay), std::forward<F>(fn));
  }

  /// A recurring event: runs `step` after `delay`, then again after each
  /// delay `step` returns (clamped like schedule_after's), until it returns
  /// std::nullopt. `step` is boxed once and the box moves from each run's
  /// event to the next, so the loop owns its closure: one allocation per
  /// loop, none per run, and the closure is freed when the loop stops,
  /// when a run throws, or with the simulator. A run re-arms only after
  /// `step` returns, so events `step` schedules for the same time run
  /// before the next run (DESIGN.md §12, "Recurring events").
  template <typename F>
  void schedule_recurring(SimTime delay, F&& step) {
    using Step = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<std::optional<SimTime>, Step&>,
                  "a recurring step returns its next delay or std::nullopt");
    struct Run {
      Simulator* sim;
      std::unique_ptr<Step> step;
      void operator()() {
        if (const std::optional<SimTime> next = (*step)()) {
          sim->schedule_after(*next, Run{sim, std::move(step)});
        }
      }
    };
    schedule_after(delay,
                   Run{this, std::make_unique<Step>(std::forward<F>(step))});
  }

  /// Bulk reservation: pre-sizes the wheel's node pool and the callback
  /// slot table for `extra` additional pending events, so a burst of
  /// schedule_at calls performs no reallocation.
  void reserve_events(std::size_t extra);

  /// Cancels a pending event; returns false if it already ran or was
  /// cancelled. Cancelling is O(1): the slot generation is bumped and the
  /// callback destroyed in place; the queue entry is discarded lazily.
  bool cancel(EventHandle h);

  /// Runs events until the queue drains or `until` is passed. Returns the
  /// number of events executed. The clock never exceeds `until`.
  std::size_t run_until(SimTime until = kTimeInfinity);

  /// Runs exactly one event if available; returns whether one ran.
  bool step();

  /// Number of events waiting (including tombstoned ones).
  [[nodiscard]] std::size_t pending() const { return wheel_count_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Installs (or clears, with nullptr) the observation hook. The hook must
  /// outlive the simulator or be cleared before it is destroyed.
  void set_hook(SimHook* hook) { hook_ = hook; }
  [[nodiscard]] SimHook* hook() const { return hook_; }

 private:
  // Queue entries are small PODs; the (heavy) callback stays put in its
  // slot so no wheel cascade ever moves a closure. An entry carries no
  // sequence number: ties at one time run in scheduling order because a
  // bucket is a FIFO (see WheelBucket).
  struct Entry {
    SimTime at;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    Callback fn;
    std::uint32_t gen = 1;  // bumped on execute/cancel; 0 is never stored
    std::uint32_t next_free = kNoSlot;
  };
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  // Slots live in fixed-size blocks, so growing the table never moves a
  // Slot. Address stability is load-bearing twice over: growth performs no
  // per-callback relocation, and the kernel can invoke a callback in place
  // while user code inside it schedules new events.
  static constexpr std::size_t kSlotBlockBits = 9;
  static constexpr std::size_t kSlotBlockSize = std::size_t{1}
                                                << kSlotBlockBits;

  // --- hierarchical timing wheel geometry (DESIGN.md §12) -------------------
  // kWheelLevels levels of kWheelBuckets buckets. Level l buckets span
  // 2^(6l) µs each; an event lives at the lowest level whose bucket span
  // still separates it from the cursor — precisely: at level l such that
  // `at` and the cursor agree on all time digits above bit 6(l+1). Eleven
  // levels hold 66 bits, so every non-negative SimTime (63 bits, up to and
  // including kTimeInfinity) has a level.
  static constexpr int kWheelBits = 6;
  static constexpr std::size_t kWheelBuckets = std::size_t{1} << kWheelBits;
  static constexpr int kWheelLevels = 11;
  static_assert(kWheelBits * kWheelLevels >=
                std::numeric_limits<SimTime>::digits);

  /// Intrusive FIFO node for wheel buckets: entries chain through a pooled
  /// node array, so cascading a bucket re-links nodes without allocating
  /// and pops recycle nodes through a free list. Padded from 20 to 32
  /// bytes so no node straddles a cache line: with 24-byte nodes perfbench
  /// fleet_stream, whose working set is far beyond cache, ran about 3%
  /// slower.
  struct alignas(32) WheelNode {
    Entry e;
    std::uint32_t next;
  };
  /// One wheel bucket: an intrusive FIFO (append at tail, pop at head)
  /// plus the minimum time over its entries. FIFO order within a bucket is
  /// always scheduling order (inserts arrive in scheduling order and
  /// cascades only ever fill empty buckets, preserving source order), so a
  /// level-0 bucket, which holds one timestamp, pops in exact execution
  /// order with no sorting.
  struct WheelBucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    SimTime min_at = 0;
  };

  [[noreturn]] static void throw_time_in_past();

  /// Wheel level for `at` relative to `cursor`: the index of the highest
  /// 6-bit time digit in which they differ (0 when equal); always below
  /// kWheelLevels, since neither time is negative.
  static int wheel_level(SimTime at, SimTime cursor) {
    const std::uint64_t x = static_cast<std::uint64_t>(at) ^
                            static_cast<std::uint64_t>(cursor);
    if (x == 0) return 0;
    return (63 - std::countl_zero(x)) / kWheelBits;
  }

  [[nodiscard]] WheelBucket& wheel_bucket(int level, std::size_t idx) {
    return wheel_[static_cast<std::size_t>(level) * kWheelBuckets + idx];
  }

  /// Enqueues the entry for an armed slot on the wheel and returns its
  /// handle. Not H2-hot itself (wheel_insert's node-pool growth is
  /// amortized, see its allow(H3) site), but reachable from hot callers,
  /// so everything else here stays allocation-free.
  EventHandle arm(SimTime at, std::uint32_t slot) {
    const std::uint32_t gen = slot_ref(slot).gen;
    wheel_insert(Entry{at, slot, gen});
    return EventHandle{slot, gen};
  }

  [[nodiscard]] Slot& slot_ref(std::uint32_t i) {
    return slot_blocks_[i >> kSlotBlockBits][i & (kSlotBlockSize - 1)];
  }
  [[nodiscard]] const Slot& slot_ref(std::uint32_t i) const {
    return slot_blocks_[i >> kSlotBlockBits][i & (kSlotBlockSize - 1)];
  }

  void grow_slots();
  void wheel_insert(const Entry& e);
  void wheel_link(std::uint32_t node);
  void wheel_advance(SimTime t);
  bool wheel_peek(SimTime& at) const;
  Entry wheel_pop_front();

  /// Pops and executes the next live event in (at, seq) order; returns
  /// false if the wheel is empty or its earliest time exceeds `until`.
  /// Cancelled entries met on the way are discarded. Defined inline: this
  /// is the kernel's innermost loop body and benefits from cross-inlining
  /// into run_until/step at every call site. Marked hot: tools/mcs_lint
  /// rejects any heap allocation introduced here (rule H2).
  // mcs-lint: hot
  bool run_one(SimTime until) {
    for (;;) {
      SimTime at = 0;
      if (!wheel_peek(at) || at > until) return false;
      // Bring the earliest bucket down to level 0 and pop its head: FIFO is
      // scheduling order, so the head is the next event. A cancelled head
      // is a tombstone, discarded before peeking again; the remaining
      // minima only move later.
      wheel_advance(at);
      const Entry e = wheel_pop_front();
      if (!entry_live(e)) continue;
      Slot& s = slot_ref(e.slot);
      ++s.gen;  // invalidate outstanding handles before user code runs
      now_ = e.at;
      ++executed_;
      if (hook_ != nullptr) hook_->on_event(e.at, executed_);
      // Invoke in place: slot storage is address-stable, so user code inside
      // the callback can schedule freely without moving the running closure.
      // The slot is not on the free list yet, so it cannot be re-armed until
      // the guard releases it — which happens even if the callback throws.
      struct FreeGuard {
        Simulator* sim;
        Slot* slot;
        std::uint32_t index;
        ~FreeGuard() {
          slot->fn.reset();
          slot->next_free = sim->free_head_;
          sim->free_head_ = index;
        }
      } guard{this, &s, e.slot};
      s.fn();
      if (hook_ != nullptr) hook_->on_event_end(e.at, executed_);
      return true;
    }
  }
  [[nodiscard]] bool entry_live(const Entry& e) const {
    return slot_ref(e.slot).gen == e.gen;
  }

  SimTime now_ = 0;
  std::uint64_t executed_ = 0;
  // Timing wheel state: pooled intrusive nodes, kWheelLevels × kWheelBuckets
  // bucket headers, one occupancy bit per bucket (ctz finds the next
  // occupied bucket in O(1)), and the cursor the level digits are relative
  // to. The cursor trails now_ only after run_until moves the clock to
  // `until` without an event; wheel_insert resyncs it before any insert.
  std::vector<WheelNode> wheel_nodes_;
  std::uint32_t wheel_free_ = kNoSlot;
  // Fixed 11×64 bucket-header array (11 KiB): always present, so the
  // wheel needs no lazy sizing inside hot inserts.
  WheelBucket wheel_[static_cast<std::size_t>(kWheelLevels) * kWheelBuckets] =
      {};
  std::uint64_t wheel_occ_[static_cast<std::size_t>(kWheelLevels)] = {};
  SimTime wheel_cursor_ = 0;
  std::size_t wheel_count_ = 0;  // entries in the wheel, incl. tombstones
  // Callback storage, recycled via free list; see kSlotBlockBits above.
  std::vector<std::unique_ptr<Slot[]>> slot_blocks_;
  std::uint32_t slot_count_ = 0;     // slots ever handed out
  std::uint32_t slot_capacity_ = 0;  // slots constructed across blocks
  std::uint32_t free_head_ = kNoSlot;
  SimHook* hook_ = nullptr;
};

}  // namespace mcs::sim
