// Layer spans for the benchmark's traced pass.
//
// Every span is recorded from outside the library: the harness brackets its
// own calls into each layer, a sim::SimHook brackets every event callback,
// and a forwarding sched::AllocationPolicy brackets every decide(). Nothing
// in src/ changes and no library knob is added.
//
// Spans are not stored one by one. Each thread keeps a small stack of open
// spans; when a span closes, its self time (duration minus the time its
// child spans covered) is added to its layer's total on that thread. So the
// self times of all layers sum exactly to the duration of the root spans.
// Ops are root spans on whatever thread runs them, and the sweep that fans
// them out is charged the thread time no op used (see Tracer::add_idle).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sched/allocation.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

/// Host wall clock in nanoseconds. Only the harness reads it; no
/// simulation sees the value.
inline std::int64_t wall_ns() {
  // mcs-lint: allow(D1, D4) — benchmark timing; never feeds a simulation.
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

/// The layers self time is charged to. kBench is the harness's own code
/// and anything else no named layer covers: the unattributed remainder.
enum class Layer : std::uint8_t {
  kBench,
  kSim,       ///< Simulator::run_until minus event callbacks
  kEngine,    ///< event callbacks minus nested spans
  kSubmit,    ///< ExecutionEngine::submit / submit_all
  kPolicy,    ///< AllocationPolicy::decide
  kWorkload,  ///< workload::generate_trace and other input generation
  kExp,       ///< exp::run_sweep: fan-out and thread time no op used
  kCheck,     ///< check::make_spec / check::run_spec
  kObs,       ///< registry fold + obs::write_report_json
};
inline constexpr std::size_t kLayers = 9;

/// Slot for decide() calls of the portfolio's initial policy; slots below
/// it are indices into sched::all_policy_names().
inline constexpr std::size_t kPortfolioSlot = 12;
inline constexpr std::size_t kPolicySlots = kPortfolioSlot + 1;

/// One thread's open spans and totals. Only its own thread touches it
/// while a pass runs; the caller reads it after the pool has drained.
struct ThreadLedger {
  struct Frame {
    std::int64_t start = 0;
    std::int64_t children = 0;
    Layer layer = Layer::kBench;
    bool root = false;
  };
  std::array<Frame, 32> stack{};
  std::size_t depth = 0;
  std::array<std::int64_t, kLayers> self_ns{};

  // decide() accounting, per policy slot.
  std::array<std::int64_t, kPolicySlots> decide_ns{};
  std::array<std::uint64_t, kPolicySlots> decide_calls{};
  std::array<std::uint64_t, kPolicySlots> ready_scanned{};
  std::array<std::uint64_t, kPolicySlots> empty_calls{};
  std::array<std::uint64_t, kPolicySlots> proposed{};

  /// Opens a span. A root span does not count as its parent's child: ops
  /// run as roots, and the sweep around them is charged separately.
  void begin(Layer layer, bool root = false) {
    stack[depth++] = Frame{wall_ns(), 0, layer, root};
  }
  /// Closes the innermost span and returns its duration.
  std::int64_t end() {
    const Frame f = stack[--depth];
    const std::int64_t dur = wall_ns() - f.start;
    self_ns[static_cast<std::size_t>(f.layer)] += dur - f.children;
    if (depth > 0 && !f.root) stack[depth - 1].children += dur;
    return dur;
  }
};

/// Owns one ledger per thread that recorded a span during its lifetime.
class Tracer {
 public:
  Tracer() : id_(next_id_.fetch_add(1) + 1) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The calling thread's ledger, created on first use.
  ThreadLedger& local() {
    thread_local std::uint64_t owner = 0;
    thread_local ThreadLedger* ledger = nullptr;
    if (owner != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      ledgers_.push_back(std::make_unique<ThreadLedger>());
      ledger = ledgers_.back().get();
      owner = id_;
    }
    return *ledger;
  }

  /// Charges sweep thread time that ran no op (idle workers, stragglers).
  void add_idle(std::int64_t ns) {
    local().self_ns[static_cast<std::size_t>(Layer::kExp)] += ns;
  }

  /// Sum of all ledgers. Call only while no span is open on any thread.
  [[nodiscard]] ThreadLedger total() const {
    ThreadLedger sum;
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& l : ledgers_) {
      for (std::size_t i = 0; i < kLayers; ++i) {
        sum.self_ns[i] += l->self_ns[i];
      }
      for (std::size_t i = 0; i < kPolicySlots; ++i) {
        sum.decide_ns[i] += l->decide_ns[i];
        sum.decide_calls[i] += l->decide_calls[i];
        sum.ready_scanned[i] += l->ready_scanned[i];
        sum.empty_calls[i] += l->empty_calls[i];
        sum.proposed[i] += l->proposed[i];
      }
    }
    return sum;
  }

 private:
  // Distinguishes tracers, so a thread never reuses a ledger of a tracer
  // that has been destroyed and whose address was recycled.
  static inline std::atomic<std::uint64_t> next_id_{0};
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLedger>> ledgers_;
};

/// RAII span; a no-op when `tracer` is null (the untraced pass).
class Span {
 public:
  Span(Tracer* tracer, Layer layer)
      : ledger_(tracer != nullptr ? &tracer->local() : nullptr) {
    if (ledger_ != nullptr) ledger_->begin(layer);
  }
  ~Span() {
    if (ledger_ != nullptr) ledger_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadLedger* ledger_;
};

/// Brackets every event callback as an engine span. The kernel calls
/// on_event just before a callback and on_event_end just after it.
class CallbackHook final : public mcs::sim::SimHook {
 public:
  explicit CallbackHook(Tracer& tracer) : ledger_(tracer.local()) {}
  void on_event(mcs::sim::SimTime, std::uint64_t) override {
    ledger_.begin(Layer::kEngine);
  }
  void on_event_end(mcs::sim::SimTime, std::uint64_t) override {
    ledger_.end();
  }

 private:
  ThreadLedger& ledger_;  // the op's thread; one hook per op
};

/// Forwards to a real policy and records each decide() call.
class TimedPolicy final : public mcs::sched::AllocationPolicy {
 public:
  TimedPolicy(std::unique_ptr<mcs::sched::AllocationPolicy> inner,
              Tracer& tracer, std::size_t slot)
      : inner_(std::move(inner)), ledger_(tracer.local()), slot_(slot) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] std::vector<mcs::sched::Assignment> decide(
      const mcs::sched::SchedulerView& view) override {
    ledger_.begin(Layer::kPolicy);
    std::vector<mcs::sched::Assignment> out;
    try {
      out = inner_->decide(view);
    } catch (...) {
      ledger_.end();
      throw;
    }
    ledger_.decide_ns[slot_] += ledger_.end();
    ++ledger_.decide_calls[slot_];
    if (view.ready != nullptr) {
      ledger_.ready_scanned[slot_] += view.ready->size();
    }
    if (out.empty()) ++ledger_.empty_calls[slot_];
    ledger_.proposed[slot_] += out.size();
    return out;
  }

 private:
  std::unique_ptr<mcs::sched::AllocationPolicy> inner_;
  ThreadLedger& ledger_;  // the op's thread; one policy per op
  std::size_t slot_;
};

}  // namespace perfbench
