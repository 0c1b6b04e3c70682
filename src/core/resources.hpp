// Fixed-K resource vectors: the capacity/demand currency of the stack (C4).
//
// `ResourceQuantities` is the one vector type: capacities, demands and free
// capacity alike, as doubles, because live demands are fractional (memory
// per core is a continuous knob, FaaS functions hold fractions of a GiB).
// `infra::ResourceVector` is an alias of it; its double arithmetic is
// bit-identical to the old scalar-struct implementation, which the digest
// goldens pin.
//
// K = 4: cpu (cores), mem (GiB), gpu (accelerator count), net (Gbps).
// Legacy three-resource call sites simply leave net at zero.
//
// `CountedExtreme` keeps the exact componentwise maximum or minimum of a
// changing set of quantities: PlannedCapacity's free-capacity bound and
// ReadyQueue's floor.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace mcs::core {

inline constexpr std::size_t kResourceDims = 4;

enum class ResourceDim : std::uint8_t { kCpu = 0, kMem = 1, kGpu = 2, kNet = 3 };

[[nodiscard]] constexpr const char* to_string(ResourceDim d) {
  switch (d) {
    case ResourceDim::kCpu: return "cpu";
    case ResourceDim::kMem: return "mem";
    case ResourceDim::kGpu: return "gpu";
    case ResourceDim::kNet: return "net";
  }
  return "?";
}

/// Runtime resource amounts. Array-backed so allocators and oracles can loop
/// over dimensions, with named accessors for readable call sites. The
/// comparison/arithmetic semantics (component order, early-out direction)
/// are exactly those of the old scalar struct — digest-pinned.
class ResourceQuantities {
 public:
  constexpr ResourceQuantities() = default;
  constexpr ResourceQuantities(double cpu, double mem = 0.0, double gpu = 0.0,
                               double net = 0.0)
      : v_{cpu, mem, gpu, net} {}

  [[nodiscard]] constexpr double& cpu() { return v_[0]; }
  [[nodiscard]] constexpr double cpu() const { return v_[0]; }
  [[nodiscard]] constexpr double& mem() { return v_[1]; }
  [[nodiscard]] constexpr double mem() const { return v_[1]; }
  [[nodiscard]] constexpr double& gpu() { return v_[2]; }
  [[nodiscard]] constexpr double gpu() const { return v_[2]; }
  [[nodiscard]] constexpr double& net() { return v_[3]; }
  [[nodiscard]] constexpr double net() const { return v_[3]; }

  [[nodiscard]] constexpr double& operator[](std::size_t d) { return v_[d]; }
  [[nodiscard]] constexpr double operator[](std::size_t d) const {
    return v_[d];
  }
  [[nodiscard]] constexpr double& operator[](ResourceDim d) {
    return v_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] constexpr double operator[](ResourceDim d) const {
    return v_[static_cast<std::size_t>(d)];
  }

  [[nodiscard]] constexpr bool fits_within(const ResourceQuantities& cap) const {
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      if (v_[d] > cap.v_[d]) return false;
    }
    return true;
  }
  [[nodiscard]] constexpr bool nonnegative() const {
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      if (v_[d] < 0.0) return false;
    }
    return true;
  }

  constexpr ResourceQuantities& operator+=(const ResourceQuantities& o) {
    for (std::size_t d = 0; d < kResourceDims; ++d) v_[d] += o.v_[d];
    return *this;
  }
  constexpr ResourceQuantities& operator-=(const ResourceQuantities& o) {
    for (std::size_t d = 0; d < kResourceDims; ++d) v_[d] -= o.v_[d];
    return *this;
  }
  friend constexpr ResourceQuantities operator+(ResourceQuantities a,
                                                const ResourceQuantities& b) {
    return a += b;
  }
  friend constexpr ResourceQuantities operator-(ResourceQuantities a,
                                                const ResourceQuantities& b) {
    return a -= b;
  }
  friend constexpr bool operator==(const ResourceQuantities& a,
                                   const ResourceQuantities& b) {
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      if (a.v_[d] != b.v_[d]) return false;
    }
    return true;
  }

 private:
  std::array<double, kResourceDims> v_{};
};

/// Which end of its members a CountedExtreme keeps.
enum class Extreme : std::uint8_t { kMax, kMin };

/// The componentwise maximum (or minimum) of a multiset of resource
/// vectors, exact at every read for O(K) per change. PlannedCapacity's
/// free-capacity bound (a maximum over machine rows) and ReadyQueue's floor
/// (a minimum over queued demands) are each one (DESIGN.md §12). Per
/// dimension it keeps the extreme, how many members sit at it, and a stale
/// bit, set when the last of them leaves; read() rescans the stale
/// dimensions only, over the members its caller feeds it. A member that
/// enters beyond the extreme replaces it and one that enters at it joins
/// the count, so on a uniform fleet, where first fit shrinks a fresh
/// machine per placement, the bound stays put without a rescan.
///
/// Quantities are non-negative, so the extreme of no members is 0 for a
/// maximum and +inf for a minimum; read() returns the extreme of the
/// members and that value, and a member equal to it counts as at it.
template <Extreme E>
class CountedExtreme {
 public:
  /// A member with value `v` joins. A member at the extreme makes a stale
  /// dimension exact again: the extreme still bounds every member, and the
  /// count of members at it is exact at all times.
  // mcs-lint: hot
  void enter(const ResourceQuantities& v) {
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      if (count(extreme_[d], at_[d], v[d])) stale_ &= ~(1u << d);
    }
  }

  /// A member with value `v` (the value it entered with) leaves.
  // mcs-lint: hot
  void leave(const ResourceQuantities& v) {
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      if (v[d] == extreme_[d] && --at_[d] == 0) stale_ |= 1u << d;
    }
  }

  /// The extreme. Each stale dimension is first rescanned in a pass of its
  /// own, O(members): `for_each_member(visit)` calls `visit(v)` once per
  /// member value.
  // mcs-lint: hot
  template <typename ForEachMember>
  const ResourceQuantities& read(ForEachMember&& for_each_member) {
    for (std::size_t d = 0; stale_ != 0; ++d) {
      if ((stale_ & (1u << d)) == 0) continue;
      stale_ &= ~(1u << d);
      double extreme = kNone;
      std::size_t at = 0;
      for_each_member([&extreme, &at, d](const ResourceQuantities& v) {
        (void)count(extreme, at, v[d]);
      });
      extreme_[d] = extreme;
      at_[d] = at;
    }
    return extreme_;
  }

 private:
  /// Counts `x` into an `extreme` with `at` members at it: beyond it, `x`
  /// becomes the extreme with one member at it; at it, `x` joins the count.
  /// True when `x` is at the extreme afterwards.
  // mcs-lint: hot
  static bool count(double& extreme, std::size_t& at, double x) {
    if (E == Extreme::kMax ? x > extreme : x < extreme) {
      extreme = x;
      at = 1;
      return true;
    }
    if (x != extreme) return false;
    ++at;
    return true;
  }

  static constexpr double kNone = E == Extreme::kMax
                                      ? 0.0
                                      : std::numeric_limits<double>::infinity();

  ResourceQuantities extreme_{kNone, kNone, kNone, kNone};
  std::array<std::size_t, kResourceDims> at_{};  ///< members at the extreme
  unsigned stale_ = 0;  ///< bit d: dimension d awaits a rescan
};

}  // namespace mcs::core
