#include "sim/simulator.hpp"

#include <cmath>
#include <stdexcept>

namespace mcs::sim {

SimTime from_seconds(double seconds) {
  if (seconds <= 0.0) return 0;
  const double us = seconds * static_cast<double>(kSecond);
  if (us >= static_cast<double>(kTimeInfinity)) return kTimeInfinity;
  return static_cast<SimTime>(std::llround(us));
}

double to_seconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

void Simulator::throw_time_in_past() {
  throw std::invalid_argument("Simulator::schedule_at: time in the past");
}

void Simulator::grow_slots() {
  // mcs-lint: allow(H3) — the deliberate amortized slow path: one block
  // allocation per kSlotBlockSize slot reuses; slots themselves recycle.
  slot_blocks_.push_back(std::make_unique<Slot[]>(kSlotBlockSize));
  slot_capacity_ += static_cast<std::uint32_t>(kSlotBlockSize);
}

void Simulator::reserve_events(std::size_t extra) {
  // The wheel's bucket headers are a fixed member array; only the intrusive
  // node pool grows with load. reserve() is a no-op when the free list
  // already covers `extra`, so repeated reservations stay idempotent.
  wheel_nodes_.reserve(wheel_count_ + extra);
  while (static_cast<std::size_t>(slot_capacity_) <
         static_cast<std::size_t>(slot_count_) + extra) {
    grow_slots();
  }
}

// mcs-lint: hot
bool Simulator::cancel(EventHandle h) {
  if (!h.valid() || h.slot_ >= slot_count_) return false;
  Slot& s = slot_ref(h.slot_);
  if (s.gen != h.gen_) return false;  // already ran or already cancelled
  ++s.gen;
  s.fn.reset();  // release captures promptly
  s.next_free = free_head_;
  free_head_ = h.slot_;
  return true;
}

// --- hierarchical timing wheel (DESIGN.md §12) ------------------------------
//
// Correctness rests on two invariants, both consequences of the digit rule
// (an entry lives at the level of the highest 6-bit time digit in which it
// differs from the cursor) plus the guarantee that wheel_advance(t) is only
// ever called with t <= every pending wheel entry's time:
//
//  1. *Single-bucket cascade.* When the cursor moves C -> t and L is their
//     highest differing digit, no entry can live at any level below L
//     (its digits above its level would match C's, forcing its time below
//     t — but t is a lower bound), and at level L only the bucket indexed
//     by t's digit can hold entries that are <= any future time digit-
//     compatible with t. So advancing drains exactly one bucket, re-linking
//     its nodes relative to t; everything else stays put. O(1) amortized.
//
//  2. *FIFO is scheduling order.* Every insert appends to its bucket in
//     scheduling order; a cascade only ever fills buckets that were empty
//     (by invariant 1 applied one level down) and preserves the source
//     order. Hence a level-0 bucket — which holds a single timestamp —
//     pops its head in exact (at, seq) execution order, with no sequence
//     number stored or compared.
//
// Levels are strictly time-ordered too (a level-l entry precedes every
// level-(l+1) entry), so the earliest entry is in the first occupied
// bucket of the first occupied level: wheel_peek needs only that bucket's
// minimum time, and after wheel_advance to it, its head is the next event.
//
// Neither invariant depends on the level count. kWheelLevels only has to
// give every time a level, and 11 six-bit digits cover all 63 bits of a
// non-negative SimTime, so the wheel orders the whole clock by itself.

// Not H2-hot: the node-pool growth below is the deliberate amortized slow
// path; steady state recycles nodes through the free list and never
// allocates.
void Simulator::wheel_insert(const Entry& e) {
  // Resync the cursor first: run_until() may have advanced now_ past the
  // cursor without executing an event. Advancing to now_ is safe — every
  // pending wheel entry's time is >= now_.
  if (wheel_cursor_ != now_) wheel_advance(now_);
  std::uint32_t n;
  if (wheel_free_ != kNoSlot) {
    n = wheel_free_;
    wheel_free_ = wheel_nodes_[n].next;
  } else {
    n = static_cast<std::uint32_t>(wheel_nodes_.size());
    // mcs-lint: allow(H3) — amortized node-pool growth; nodes recycle via
    // the free list, so steady state allocates nothing (reserve_events
    // pre-sizes the pool for bulk setup).
    wheel_nodes_.push_back(WheelNode{});
  }
  wheel_nodes_[n].e = e;
  wheel_link(n);
  ++wheel_count_;
}

// mcs-lint: hot
void Simulator::wheel_link(std::uint32_t n) {
  const Entry& e = wheel_nodes_[n].e;
  const int l = wheel_level(e.at, wheel_cursor_);
  const std::size_t idx =
      (static_cast<std::uint64_t>(e.at) >> (kWheelBits * l)) &
      (kWheelBuckets - 1);
  WheelBucket& b = wheel_bucket(l, idx);
  wheel_nodes_[n].next = kNoSlot;
  if (b.head == kNoSlot) {
    b.head = n;
    b.tail = n;
    b.min_at = e.at;
    wheel_occ_[l] |= std::uint64_t{1} << idx;
  } else {
    wheel_nodes_[b.tail].next = n;
    b.tail = n;
    // An append can carry a time below the bucket's current minimum (FIFO
    // is scheduling order, not time order), and peek must surface the true
    // bucket minimum.
    if (e.at < b.min_at) b.min_at = e.at;
  }
}

// mcs-lint: hot
void Simulator::wheel_advance(SimTime t) {
  if (t == wheel_cursor_) return;
  const SimTime prev = wheel_cursor_;
  wheel_cursor_ = t;  // set first: wheel_link levels relative to the new cursor
  if (wheel_count_ == 0) return;
  const int level = wheel_level(t, prev);
  // level == 0: only the lowest digit changed, so no entry's level or
  // bucket can change (level-0 buckets hold a single timestamp).
  if (level == 0) return;
  const std::size_t idx =
      (static_cast<std::uint64_t>(t) >> (kWheelBits * level)) &
      (kWheelBuckets - 1);
  WheelBucket& b = wheel_bucket(level, idx);
  std::uint32_t n = b.head;
  if (n == kNoSlot) return;
  b.head = kNoSlot;
  b.tail = kNoSlot;
  wheel_occ_[level] &= ~(std::uint64_t{1} << idx);
  // Re-link the drained chain in FIFO order: demoted entries land at
  // strictly lower levels, into buckets that invariant 1 guarantees are
  // empty of older entries — so bucket FIFOs stay in scheduling order.
  while (n != kNoSlot) {
    const std::uint32_t next = wheel_nodes_[n].next;
    wheel_link(n);
    n = next;
  }
}

// mcs-lint: hot
bool Simulator::wheel_peek(SimTime& at) const {
  if (wheel_count_ == 0) return false;
  // Levels are strictly time-ordered (a level-l entry precedes every
  // level-(l+1) entry) and buckets within a level are time-ordered by
  // index, so the first occupied bucket of the first occupied level holds
  // the wheel's earliest time — possibly a cancelled tombstone's, which
  // run_one discards after cascading it to level 0.
  for (int l = 0; l < kWheelLevels; ++l) {
    const std::uint64_t occ = wheel_occ_[l];
    if (occ == 0) continue;
    const auto idx = static_cast<std::size_t>(std::countr_zero(occ));
    const WheelBucket& b =
        wheel_[static_cast<std::size_t>(l) * kWheelBuckets + idx];
    at = b.min_at;
    return true;
  }
  return false;
}

// mcs-lint: hot
Simulator::Entry Simulator::wheel_pop_front() {
  // Precondition: wheel_advance(at) just ran for the earliest time `at`,
  // so the next event sits at the head of the level-0 bucket for `at`.
  const std::size_t idx =
      static_cast<std::uint64_t>(wheel_cursor_) & (kWheelBuckets - 1);
  WheelBucket& b = wheel_bucket(0, idx);
  const std::uint32_t n = b.head;
  WheelNode& node = wheel_nodes_[n];
  b.head = node.next;
  if (b.head == kNoSlot) {
    b.tail = kNoSlot;
    wheel_occ_[0] &= ~(std::uint64_t{1} << idx);
  }
  const Entry e = node.e;
  node.next = wheel_free_;
  wheel_free_ = n;
  --wheel_count_;
  return e;
}

bool Simulator::step() { return run_one(kTimeInfinity); }

std::size_t Simulator::run_until(SimTime until) {
  std::size_t ran = 0;
  while (run_one(until)) ++ran;
  if (now_ < until && until != kTimeInfinity) now_ = until;
  return ran;
}

}  // namespace mcs::sim
