// Property tests for the fixed-K resource vector (core/resources.hpp) and
// the planned-capacity dominant-component bound (sched/scoring.hpp):
// randomized algebraic laws for ResourceQuantities, CountedExtreme and the
// planned-capacity bound built on it, each checked against a naive
// recompute under random churn, the per-dimension FP-residue regression,
// and the fit test a machine and its planned row share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/resources.hpp"
#include "infra/topology.hpp"
#include "sched/scoring.hpp"
#include "sim/random.hpp"

namespace mcs {
namespace {

using core::kResourceDims;
using core::ResourceDim;
using core::ResourceQuantities;

ResourceQuantities random_quants(sim::Rng& rng, double hi = 16.0) {
  ResourceQuantities q;
  for (std::size_t d = 0; d < kResourceDims; ++d) q[d] = rng.uniform(0.0, hi);
  return q;
}

// ---- ResourceQuantities --------------------------------------------------------

TEST(ResourceQuantitiesTest, AccessorsAliasTheIndexedComponents) {
  ResourceQuantities q{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(q.cpu(), q[0]);
  EXPECT_EQ(q.mem(), q[1]);
  EXPECT_EQ(q.gpu(), q[2]);
  EXPECT_EQ(q.net(), q[3]);
  EXPECT_EQ(q[ResourceDim::kGpu], 3.0);
  q.net() = 7.0;
  EXPECT_EQ(q[ResourceDim::kNet], 7.0);
  q[ResourceDim::kCpu] = 9.0;
  EXPECT_EQ(q.cpu(), 9.0);
}

TEST(ResourceQuantitiesTest, DefaultConstructsToZeroInEveryDimension) {
  const ResourceQuantities q;
  for (std::size_t d = 0; d < kResourceDims; ++d) EXPECT_EQ(q[d], 0.0);
  EXPECT_TRUE(q.nonnegative());
  EXPECT_EQ(q, ResourceQuantities{});
}

TEST(ResourceQuantitiesTest, ArithmeticIsComponentwise) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    const ResourceQuantities a = random_quants(rng);
    const ResourceQuantities b = random_quants(rng);
    const ResourceQuantities sum = a + b;
    const ResourceQuantities diff = a - b;
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      EXPECT_EQ(sum[d], a[d] + b[d]);
      EXPECT_EQ(diff[d], a[d] - b[d]);
    }
    EXPECT_EQ((a + b) - b + b - b, a + b - b);  // same op sequence, same bits
  }
}

TEST(ResourceQuantitiesTest, FitsWithinMatchesComponentwiseComparison) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    const ResourceQuantities a = random_quants(rng, 4.0);
    const ResourceQuantities b = random_quants(rng, 4.0);
    bool expected = true;
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      if (a[d] > b[d]) expected = false;
    }
    EXPECT_EQ(a.fits_within(b), expected);
  }
  // Each dimension individually breaks the fit.
  const ResourceQuantities cap{4.0, 4.0, 4.0, 4.0};
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    ResourceQuantities probe{1.0, 1.0, 1.0, 1.0};
    probe[d] = 4.5;
    EXPECT_FALSE(probe.fits_within(cap));
  }
}

TEST(ResourceQuantitiesTest, NonnegativeDetectsEachDimension) {
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    ResourceQuantities q{1.0, 1.0, 1.0, 1.0};
    q[d] = -1e-12;
    EXPECT_FALSE(q.nonnegative());
  }
}

// ---- CountedExtreme vs naive recompute ------------------------------------------

/// The extreme of `members`, recomputed from scratch: of no members, 0 for
/// a maximum and +inf for a minimum.
template <core::Extreme E>
ResourceQuantities naive_extreme(
    const std::vector<ResourceQuantities>& members) {
  const double none = E == core::Extreme::kMax
                          ? 0.0
                          : std::numeric_limits<double>::infinity();
  ResourceQuantities out{none, none, none, none};
  for (const ResourceQuantities& m : members) {
    for (std::size_t d = 0; d < kResourceDims; ++d) {
      out[d] = E == core::Extreme::kMax ? std::max(out[d], m[d])
                                        : std::min(out[d], m[d]);
    }
  }
  return out;
}

/// Random enter/leave churn over values in {0, 0.25, ..., 1.5}, so members
/// tie at the extreme all the time, with reads at random points between
/// steps. When a leave takes the last member at the extreme of some
/// dimension (which goes stale), the same value re-enters half the time
/// before the next read; `reentries` counts those.
template <core::Extreme E>
void churn_against_naive(std::size_t& reentries) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    sim::Rng rng(seed);
    core::CountedExtreme<E> extreme;
    std::vector<ResourceQuantities> members;
    const auto feed = [&members](const auto& visit) {
      for (const ResourceQuantities& m : members) visit(m);
    };
    for (int step = 0; step < 400; ++step) {
      if (members.empty() || rng.chance(0.55)) {
        ResourceQuantities v;
        for (std::size_t d = 0; d < kResourceDims; ++d) {
          v[d] = 0.25 * static_cast<double>(rng.uniform_int(0, 6));
        }
        members.push_back(v);
        extreme.enter(v);
      } else {
        const auto k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(members.size()) - 1));
        const ResourceQuantities v = members[k];
        const ResourceQuantities before = naive_extreme<E>(members);
        bool stales = false;
        for (std::size_t d = 0; d < kResourceDims; ++d) {
          const auto at = std::count_if(
              members.begin(), members.end(),
              [&](const ResourceQuantities& m) { return m[d] == before[d]; });
          stales |= members.size() > 1 && v[d] == before[d] && at == 1;
        }
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(k));
        extreme.leave(v);
        if (stales && rng.chance(0.5)) {
          members.push_back(v);
          extreme.enter(v);
          ++reentries;
        }
      }
      if (rng.chance(0.4)) {
        ASSERT_EQ(extreme.read(feed), naive_extreme<E>(members))
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_EQ(extreme.read(feed), naive_extreme<E>(members))
        << "seed " << seed;
  }
}

TEST(CountedExtremeTest, MaxAndMinMatchNaiveRecomputeUnderChurnWithTies) {
  std::size_t max_reentries = 0;
  churn_against_naive<core::Extreme::kMax>(max_reentries);
  std::size_t min_reentries = 0;
  churn_against_naive<core::Extreme::kMin>(min_reentries);
  EXPECT_GT(max_reentries, 100u);
  EXPECT_GT(min_reentries, 100u);
}

// ---- PlannedCapacity vs naive reference ----------------------------------------

/// Naive shadow of PlannedCapacity: recomputes the componentwise bound from
/// scratch at every probe — O(M*K), the cost the incremental version avoids.
struct NaivePlanned {
  std::vector<ResourceQuantities> free;

  [[nodiscard]] ResourceQuantities max_free() const {
    ResourceQuantities max_free;
    for (const ResourceQuantities& f : free) {
      for (std::size_t d = 0; d < kResourceDims; ++d) {
        max_free[d] = std::max(max_free[d], f[d]);
      }
    }
    return max_free;
  }
  [[nodiscard]] bool may_fit_anywhere(const ResourceQuantities& r) const {
    return r.fits_within(max_free());
  }
};

TEST(PlannedCapacityTest, BoundMatchesNaiveRecomputeUnderTakesAndReleases) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    sim::Rng rng(seed);
    infra::Datacenter dc("pc", "sim");
    const std::size_t machine_count =
        static_cast<std::size_t>(rng.uniform_int(1, 12));
    for (std::size_t m = 0; m < machine_count; ++m) {
      dc.add_machine("m" + std::to_string(m),
                     infra::ResourceVector{rng.uniform(2.0, 16.0),
                                           rng.uniform(2.0, 64.0),
                                           rng.chance(0.3) ? 2.0 : 0.0,
                                           rng.chance(0.5) ? 10.0 : 0.0},
                     1.0, 0);
    }
    const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
    sched::PlannedCapacity planned(machines);
    NaivePlanned naive;
    for (const infra::Machine* m : machines) naive.free.push_back(m->available());
    const auto random_id = [&] {
      return static_cast<infra::MachineId>(rng.uniform_int(
          0, static_cast<std::int64_t>(machine_count) - 1));
    };
    const auto random_demand = [&] {
      ResourceQuantities r;
      for (std::size_t d = 0; d < kResourceDims; ++d) {
        r[d] = rng.chance(0.5) ? rng.uniform(0.0, 4.0) : 0.0;
      }
      return r;
    };

    // Mixed sequence of four kinds of step, with probes after every step:
    // - a planned take (positive delta);
    // - a planned release (a negative take re-raising a machine's free
    //   capacity, exercising the argmax-raise path);
    // - an allocate or release on the real machine, then refresh(id), which
    //   re-reads the row and may move the bound either way;
    // - a batch of takes, then restore(), which returns every row to live.
    std::vector<std::pair<infra::MachineId, ResourceQuantities>> placed;
    std::vector<std::vector<ResourceQuantities>> held(machine_count);
    for (int step = 0; step < 300; ++step) {
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.2) {
        const infra::MachineId id = random_id();
        infra::Machine& m = dc.machine(id);
        if (!held[id].empty() && rng.chance(0.5)) {
          m.release(held[id].back());
          held[id].pop_back();
        } else if (const ResourceQuantities r = random_demand(); m.can_fit(r)) {
          m.allocate(r);
          held[id].push_back(r);
        }
        planned.refresh(id);
        naive.free[id] = m.available();
        std::erase_if(placed, [&](const auto& p) { return p.first == id; });
      } else if (kind < 0.3) {
        for (std::int64_t k = rng.uniform_int(1, 6); k > 0; --k) {
          planned.take(random_id(), random_demand());
        }
        planned.restore();
        for (const infra::Machine* m : machines) {
          naive.free[m->id()] = m->available();
        }
        placed.clear();
      } else if (!placed.empty() && rng.chance(0.35)) {
        const std::size_t k = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(placed.size()) - 1));
        const auto [id, r] = placed[k];
        placed.erase(placed.begin() + static_cast<std::ptrdiff_t>(k));
        planned.take(id, ResourceQuantities{} - r);  // release
        naive.free[id] += r;
      } else {
        const infra::MachineId id = random_id();
        const ResourceQuantities r = random_demand();
        planned.take(id, r);
        naive.free[id] -= r;
        placed.emplace_back(id, r);
      }
      for (infra::MachineId id = 0; id < machine_count; ++id) {
        ASSERT_EQ(planned.free_on(id), naive.free[id])
            << "seed " << seed << " step " << step;
      }
      for (int probe = 0; probe < 4; ++probe) {
        const ResourceQuantities r = random_quants(rng, 20.0);
        ASSERT_EQ(planned.may_fit_anywhere(r), naive.may_fit_anywhere(r))
            << "seed " << seed << " step " << step;
      }
      // Probes at the exact bound and one ulp above it in each dimension:
      // a bound that is off in either direction fails one of them.
      const ResourceQuantities top = naive.max_free();
      ASSERT_TRUE(planned.may_fit_anywhere(top))
          << "seed " << seed << " step " << step;
      for (std::size_t d = 0; d < kResourceDims; ++d) {
        ResourceQuantities above = top;
        above[d] = std::nextafter(top[d], 1e300);
        ASSERT_FALSE(planned.may_fit_anywhere(above))
            << "seed " << seed << " step " << step << " dim " << d;
      }
    }
  }
}

TEST(PlannedCapacityTest, FitsRespectsPlannedTakes) {
  infra::Datacenter dc("pc", "sim");
  dc.add_machine("m0", infra::ResourceVector{8.0, 32.0, 0.0, 0.0}, 1.0, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  sched::PlannedCapacity planned(machines);
  const infra::ResourceVector half{4.0, 16.0, 0.0, 0.0};
  EXPECT_TRUE(planned.fits(0, half));
  planned.take(0, half);
  EXPECT_TRUE(planned.fits(0, half));
  planned.take(0, half);
  EXPECT_FALSE(planned.fits(0, infra::ResourceVector{0.5, 0.0, 0.0, 0.0}));
  EXPECT_FALSE(planned.fits(7, infra::ResourceVector{0.0, 0.0, 0.0, 0.0}));
}

TEST(PlannedCapacityTest, RejectsPerDimensionIncludingNet) {
  infra::Datacenter dc("pc", "sim");
  dc.add_machine("m0", infra::ResourceVector{8.0, 32.0, 2.0, 10.0}, 1.0, 0);
  dc.add_machine("m1", infra::ResourceVector{16.0, 16.0, 0.0, 0.0}, 1.0, 0);
  const auto machines = static_cast<const infra::Datacenter&>(dc).machines();
  sched::PlannedCapacity planned(machines);
  // Componentwise max over the fleet is {16, 32, 2, 10}.
  EXPECT_TRUE(
      planned.may_fit_anywhere(infra::ResourceVector{16.0, 32.0, 2.0, 10.0}));
  EXPECT_FALSE(
      planned.may_fit_anywhere(infra::ResourceVector{16.5, 0.0, 0.0, 0.0}));
  EXPECT_FALSE(
      planned.may_fit_anywhere(infra::ResourceVector{0.0, 32.5, 0.0, 0.0}));
  EXPECT_FALSE(
      planned.may_fit_anywhere(infra::ResourceVector{0.0, 0.0, 2.5, 0.0}));
  EXPECT_FALSE(
      planned.may_fit_anywhere(infra::ResourceVector{0.0, 0.0, 0.0, 10.5}));
}

// ---- Per-dimension FP residue (machine snap-to-zero) ---------------------------

TEST(MachineResidueTest, FractionalChurnLeavesExactZeroInEveryDimension) {
  // 0.1 is not representable in binary; summing and subtracting it leaves
  // ~1e-17 residue unless the release path snaps each dimension to zero.
  infra::Machine m(0, "m", infra::ResourceVector{1.0, 1.0, 1.0, 1.0}, 1.0);
  const infra::ResourceVector slice{0.1, 0.1, 0.1, 0.1};
  for (int round = 0; round < 3; ++round) m.allocate(slice);
  for (int round = 0; round < 3; ++round) m.release(slice);
  for (std::size_t d = 0; d < kResourceDims; ++d) {
    EXPECT_EQ(m.used()[d], 0.0) << core::to_string(
        static_cast<ResourceDim>(d));
  }
  // The regression's point: an exactly-full demand must fit afterwards.
  EXPECT_TRUE(m.can_fit(infra::ResourceVector{1.0, 1.0, 1.0, 1.0}));
}

TEST(MachineResidueTest, NetOnlyChurnSnapsLikeTheOtherDimensions) {
  infra::Machine m(0, "m", infra::ResourceVector{4.0, 4.0, 0.0, 5.0}, 1.0);
  const infra::ResourceVector net_slice{1.0, 1.0, 0.0, 0.7};
  for (int round = 0; round < 4; ++round) m.allocate(net_slice);
  for (int round = 0; round < 4; ++round) m.release(net_slice);
  EXPECT_EQ(m.used().net(), 0.0);
  EXPECT_TRUE(m.can_fit(infra::ResourceVector{4.0, 4.0, 0.0, 5.0}));
}

// ---- One fit test for a machine and its planned row ----------------------------

TEST(MachineTest, CanFitAgreesWithThePlannedRowAtTheBoundary) {
  // 7 + 2^-50 cores held on 8 leave 1 - 2^-50 available, yet used + 1 is a
  // tie that rounds to 8: a sum test admits the core that the planned row,
  // capacity - used, refuses.
  infra::Machine m(0, "m", infra::ResourceVector{8.0, 32.0}, 1.0);
  m.allocate(infra::ResourceVector{7.0 + std::ldexp(1.0, -50)});
  ASSERT_EQ(m.available().cpu(), 1.0 - std::ldexp(1.0, -50));
  ASSERT_EQ(m.used().cpu() + 1.0, 8.0);
  const infra::ResourceVector one_core{1.0};
  const sched::PlannedCapacity planned(
      std::vector<const infra::Machine*>{&m});
  EXPECT_FALSE(m.can_fit(one_core));
  EXPECT_EQ(m.can_fit(one_core), planned.fits(m.id(), one_core));
  EXPECT_THROW(m.allocate(one_core), std::logic_error);
}

}  // namespace
}  // namespace mcs
