// Metric instruments: counters, gauges, and log-bucketed histograms.
//
// obs::Registry replaces the ad-hoc tallies that used to live as raw
// member variables in sched/engine.cpp, autoscale/, and failures/: a
// component registers named instruments during setup (allocating), keeps
// the returned references, and records through them on the hot path —
// Counter::add and metrics::Histogram::record are branch-free integer
// updates with no heap traffic, legal inside `// mcs-lint: hot` functions.
//
// Determinism contract: instruments iterate in registration order (stable
// across runs because registration happens in deterministic setup code),
// merge() folds another registry in *its* registration order, and
// fold_digest() hashes names and values in registration order — so
// per-cell registries merged in flat grid order digest bit-identically at
// any thread count, same as metrics::Accumulator/Digest (DESIGN.md §11).
//
// Histogram binning is NOT duplicated here: the histogram instrument *is*
// metrics::Histogram, the repository's single binning implementation.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/stats.hpp"

namespace mcs::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  /// Allocation-free.
  // mcs-lint: hot
  void add(std::uint64_t delta = 1) { v_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return v_; }
  /// Merging counters sums them.
  void merge(const Counter& other) { v_ += other.v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-written level (queue depth, target pool size, ...).
class Gauge {
 public:
  /// Allocation-free.
  // mcs-lint: hot
  void set(double v) {
    v_ = v;
    if (!set_ || v > max_) max_ = v;
    set_ = true;
  }
  [[nodiscard]] double value() const { return v_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] bool seen() const { return set_; }
  /// Merging gauges keeps the last value of `other` when it was ever set
  /// (the merged-in registry is the later/child one) and the max of maxes
  /// — deterministic regardless of merge nesting.
  void merge(const Gauge& other) {
    if (other.set_) {
      v_ = other.v_;
      if (!set_ || other.max_ > max_) max_ = other.max_;
      set_ = true;
    }
  }

 private:
  double v_ = 0.0;
  double max_ = 0.0;
  bool set_ = false;
};

/// Instrument kinds a registry can hold. The histogram instrument is
/// metrics::Histogram itself (single binning implementation).
enum class InstrumentKind : std::uint8_t { kCounter, kGauge, kHistogram };

[[nodiscard]] const char* to_string(InstrumentKind k);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create by name; the returned reference is stable for the
  /// registry's lifetime (deque storage). Setup path — may allocate.
  /// Throws std::logic_error if the name exists with a different kind.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  metrics::Histogram& histogram(std::string_view name);

  [[nodiscard]] std::size_t size() const { return order_.size(); }

  /// Read-only view of one registered instrument (export/report path).
  /// Exactly one of the three pointers is non-null, matching `kind`.
  struct InstrumentView {
    std::string_view name;
    InstrumentKind kind = InstrumentKind::kCounter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const metrics::Histogram* histogram = nullptr;
  };
  /// The i-th instrument in registration order (i < size()).
  [[nodiscard]] InstrumentView view(std::size_t i) const;

  /// Looks up an instrument without creating it; nullptr when absent or
  /// of a different kind.
  [[nodiscard]] const Counter* find_counter(std::string_view name) const;
  [[nodiscard]] const metrics::Histogram* find_histogram(
      std::string_view name) const;

  /// Folds `other` into this registry in other's registration order:
  /// counters add, gauges take other's last value, histograms merge bins.
  /// Missing instruments are created, so merging per-cell registries in
  /// flat grid order yields one deterministic aggregate.
  void merge(const Registry& other);

  /// Hashes names + values in registration order into `d`.
  void fold_digest(metrics::Digest& d) const;

  /// Human-readable listing in registration order (the `--metrics` output
  /// of the exp_* harness): one line per instrument, histograms with
  /// count/mean/p50/p99/max.
  void print(std::ostream& out) const;

 private:
  struct Slot {
    std::string name;
    InstrumentKind kind;
    std::size_t index;  ///< into the kind's deque
  };

  [[nodiscard]] const Slot* find(std::string_view name) const;

  std::vector<Slot> order_;  ///< registration order; also the name lookup
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<metrics::Histogram> histograms_;
};

}  // namespace mcs::obs
