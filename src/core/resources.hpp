// Fixed-K resource vectors: the capacity/demand currency of the stack (C4).
//
// Two types, mirroring the YT/YP scheduler split the ROADMAP points at:
//
//  - `ResourceCapacities` — declared machine/pod *shapes* as integral units
//    (`std::array<uint64_t, K>`), the type catalogs and fleet profiles
//    trade in. Exact arithmetic, YT-style free-function operators.
//  - `ResourceQuantities` — runtime *bookkeeping* as doubles, because live
//    demands are fractional (memory per core is a continuous knob, FaaS
//    functions hold fractions of a GiB). `infra::ResourceVector` is an
//    alias of this type; its double arithmetic is bit-identical to the old
//    scalar-struct implementation, which the pre-PR digest goldens pin.
//
// K = 4: cpu (cores), mem (GiB), gpu (accelerator count), net (Gbps).
// Legacy three-resource call sites simply leave net at zero.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

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

/// Declared integral resource shape (whole cores / GiB / devices / Gbps).
using ResourceCapacities = std::array<std::uint64_t, kResourceDims>;

constexpr ResourceCapacities& operator+=(ResourceCapacities& a,
                                         const ResourceCapacities& b) {
  for (std::size_t d = 0; d < kResourceDims; ++d) a[d] += b[d];
  return a;
}
constexpr ResourceCapacities operator+(ResourceCapacities a,
                                       const ResourceCapacities& b) {
  return a += b;
}
/// Componentwise saturating subtraction (free capacity never goes negative).
constexpr ResourceCapacities& operator-=(ResourceCapacities& a,
                                         const ResourceCapacities& b) {
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    a[d] = a[d] >= b[d] ? a[d] - b[d] : 0;
  }
  return a;
}
constexpr ResourceCapacities operator-(ResourceCapacities a,
                                       const ResourceCapacities& b) {
  return a -= b;
}

/// True when `a` covers `b` in every component (the fit predicate).
// mcs-lint: allow(R1) — only ResourceCapacitiesTest (tests/resources_test.cpp)
// calls it, max_of() and quantize_ceil(); they go with those tests in a
// later change, since one change may take at most three tests out of the
// suite.
[[nodiscard]] constexpr bool dominates(const ResourceCapacities& a,
                                       const ResourceCapacities& b) {
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    if (a[d] < b[d]) return false;
  }
  return true;
}

// mcs-lint: allow(R1) — as dominates().
[[nodiscard]] constexpr ResourceCapacities max_of(const ResourceCapacities& a,
                                                  const ResourceCapacities& b) {
  ResourceCapacities out{};
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    out[d] = a[d] > b[d] ? a[d] : b[d];
  }
  return out;
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

/// Declared shape -> runtime amounts (whole units become exact doubles; every
/// integer up to 2^53 is representable, far beyond any fleet shape).
[[nodiscard]] constexpr ResourceQuantities to_quantities(
    const ResourceCapacities& c) {
  ResourceQuantities q;
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    q[d] = static_cast<double>(c[d]);
  }
  return q;
}

/// Runtime amounts -> declared shape, rounding up (a shape that *covers* the
/// quantity); negative components clamp to zero.
// mcs-lint: allow(R1) — as dominates().
[[nodiscard]] constexpr ResourceCapacities quantize_ceil(
    const ResourceQuantities& q) {
  ResourceCapacities c{};
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    const double x = q[d];
    if (x <= 0.0) continue;
    auto whole = static_cast<std::uint64_t>(x);
    c[d] = static_cast<double>(whole) < x ? whole + 1 : whole;
  }
  return c;
}

}  // namespace mcs::core
