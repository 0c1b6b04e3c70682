// Tests for statistics, SPEC elasticity metrics, and reporting (src/metrics).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "metrics/elasticity.hpp"
#include "metrics/report.hpp"
#include "metrics/stats.hpp"

namespace mcs::metrics {
namespace {

using mcs::sim::kHour;
using mcs::sim::kSecond;

// ---- Accumulator ----------------------------------------------------------------

TEST(AccumulatorTest, BasicMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(AccumulatorTest, QuantilesInterpolate) {
  Accumulator acc;
  for (int i = 1; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_NEAR(acc.median(), 50.5, 1e-9);
  EXPECT_NEAR(acc.quantile(0.99), 99.01, 0.01);
  EXPECT_DOUBLE_EQ(acc.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(acc.quantile(1.0), 100.0);
}

TEST(AccumulatorTest, EmptyIsSafe) {
  Accumulator acc;
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(acc.quantile(0.5), 0.0);
}

TEST(AccumulatorTest, QuantileWithoutSamplesThrows) {
  Accumulator acc(/*keep_samples=*/false);
  acc.add(1.0);
  EXPECT_THROW(static_cast<void>(acc.quantile(0.5)), std::logic_error);
  EXPECT_DOUBLE_EQ(acc.mean(), 1.0);  // moments still work
}

TEST(AccumulatorTest, CvIsScaleFree) {
  Accumulator a, b;
  for (double x : {1.0, 2.0, 3.0}) a.add(x);
  for (double x : {10.0, 20.0, 30.0}) b.add(x);
  EXPECT_NEAR(a.cv(), b.cv(), 1e-12);
}

TEST(AccumulatorTest, MergeEmptyIsIdentityBothWays) {
  Accumulator filled;
  for (double x : {1.0, 2.0, 3.0}) filled.add(x);
  const double mean_before = filled.mean();
  const double var_before = filled.variance();

  Accumulator empty;
  filled.merge(empty);  // rhs empty: nothing changes
  EXPECT_EQ(filled.count(), 3u);
  EXPECT_DOUBLE_EQ(filled.mean(), mean_before);
  EXPECT_DOUBLE_EQ(filled.variance(), var_before);

  Accumulator target;  // lhs empty: adopts rhs wholesale
  target.merge(filled);
  EXPECT_EQ(target.count(), 3u);
  EXPECT_DOUBLE_EQ(target.mean(), mean_before);
  EXPECT_DOUBLE_EQ(target.variance(), var_before);
  EXPECT_DOUBLE_EQ(target.min(), 1.0);
  EXPECT_DOUBLE_EQ(target.max(), 3.0);

  Accumulator both_a, both_b;
  both_a.merge(both_b);  // both empty: still empty and safe
  EXPECT_EQ(both_a.count(), 0u);
  EXPECT_DOUBLE_EQ(both_a.mean(), 0.0);
}

TEST(AccumulatorTest, MergeOfSingletonsMatchesDirectFeed) {
  // Size-1 partials stress the Chan et al. update (n-1 denominators):
  // merging eight singletons must equal adding the eight values directly.
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  Accumulator direct;
  Accumulator merged;
  for (double x : xs) {
    direct.add(x);
    Accumulator one;
    one.add(x);
    EXPECT_EQ(one.count(), 1u);
    EXPECT_DOUBLE_EQ(one.variance(), 0.0);  // n-1 guard on a single sample
    merged.merge(one);
  }
  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_DOUBLE_EQ(merged.mean(), direct.mean());
  EXPECT_NEAR(merged.variance(), direct.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(merged.min(), direct.min());
  EXPECT_DOUBLE_EQ(merged.max(), direct.max());
  EXPECT_DOUBLE_EQ(merged.quantile(0.5), direct.quantile(0.5));
}

TEST(DigestTest, ZeroRecordDigestIsStableBasis) {
  // A digest that never saw a record must equal the FNV-1a offset basis
  // (and its hex form must be the 16-digit format the determinism script
  // diffs) — merging it into another digest must still fold its length
  // guard, so empty-merge is deliberately NOT a no-op.
  Digest empty;
  EXPECT_EQ(empty.value(), 1469598103934665603ull);
  EXPECT_EQ(empty.hex().size(), 16u);

  Digest a, b;
  a.add_u64(7);
  const std::uint64_t before = a.value();
  a.merge(b);
  EXPECT_NE(a.value(), before);  // length-guarded: empty child is recorded

  // Same records + same merge shape => same value (what the sweep relies
  // on); a reordering of records changes it (order sensitivity).
  Digest c, d;
  c.add_u64(7);
  c.merge(Digest{});
  EXPECT_EQ(a.value(), c.value());
  d.add_u64(7);
  EXPECT_NE(d.value(), a.value());
}

TEST(StatsTest, LeastSquaresRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = least_squares(x, y);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-9);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
}

// ---- StepSeries ------------------------------------------------------------------

TEST(StepSeriesTest, ValueLookup) {
  StepSeries s;
  s.append(0, 1.0);
  s.append(10, 3.0);
  s.append(20, 2.0);
  EXPECT_DOUBLE_EQ(s.at(-1), 0.0);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_DOUBLE_EQ(s.at(9), 1.0);
  EXPECT_DOUBLE_EQ(s.at(10), 3.0);
  EXPECT_DOUBLE_EQ(s.at(100), 2.0);
}

TEST(StepSeriesTest, TimeAverage) {
  StepSeries s;
  s.append(0, 2.0);
  s.append(50, 4.0);
  EXPECT_DOUBLE_EQ(s.time_average(0, 100), 3.0);
  EXPECT_DOUBLE_EQ(s.time_average(0, 50), 2.0);
  EXPECT_DOUBLE_EQ(s.time_average(50, 100), 4.0);
}

TEST(StepSeriesTest, BackwardsAppendThrows) {
  StepSeries s;
  s.append(10, 1.0);
  EXPECT_THROW(s.append(5, 2.0), std::invalid_argument);
}

TEST(StepSeriesTest, SameInstantUpdateWins) {
  StepSeries s;
  s.append(10, 1.0);
  s.append(10, 2.0);
  EXPECT_DOUBLE_EQ(s.at(10), 2.0);
  EXPECT_EQ(s.samples().size(), 1u);
}

// ---- elasticity metrics -------------------------------------------------------------

TEST(ElasticityTest, PerfectTrackingScoresPerfect) {
  StepSeries demand, supply;
  demand.append(0, 5.0);
  demand.append(kHour, 10.0);
  supply.append(0, 5.0);
  supply.append(kHour, 10.0);
  const auto r = elasticity_report(demand, supply, 0, 2 * kHour);
  EXPECT_DOUBLE_EQ(r.accuracy_under, 0.0);
  EXPECT_DOUBLE_EQ(r.accuracy_over, 0.0);
  EXPECT_DOUBLE_EQ(r.timeshare_under, 0.0);
  EXPECT_DOUBLE_EQ(r.timeshare_over, 0.0);
  EXPECT_DOUBLE_EQ(elasticity_score(r), 1.0);
}

TEST(ElasticityTest, ConstantUnderprovisioningIsMeasuredExactly) {
  StepSeries demand, supply;
  demand.append(0, 10.0);
  supply.append(0, 6.0);
  const auto r = elasticity_report(demand, supply, 0, kHour);
  EXPECT_DOUBLE_EQ(r.accuracy_under, 4.0);
  EXPECT_DOUBLE_EQ(r.accuracy_over, 0.0);
  EXPECT_DOUBLE_EQ(r.timeshare_under, 1.0);
  EXPECT_NEAR(r.accuracy_under_norm, 0.4, 1e-12);
}

TEST(ElasticityTest, HalfTimeOverprovisioned) {
  StepSeries demand, supply;
  demand.append(0, 4.0);
  supply.append(0, 4.0);
  supply.append(30 * sim::kMinute, 8.0);
  const auto r = elasticity_report(demand, supply, 0, kHour);
  EXPECT_DOUBLE_EQ(r.timeshare_over, 0.5);
  EXPECT_DOUBLE_EQ(r.accuracy_over, 2.0);  // 4 extra for half the time
  EXPECT_EQ(r.adaptations, 1u);
}

TEST(ElasticityTest, JitterCountsAdaptationsPerHour) {
  StepSeries demand, supply;
  demand.append(0, 1.0);
  supply.append(0, 1.0);
  for (int i = 1; i <= 10; ++i) {
    supply.append(i * 6 * sim::kMinute - 1, (i % 2 == 0) ? 1.0 : 2.0);
  }
  const auto r = elasticity_report(demand, supply, 0, kHour);
  EXPECT_NEAR(r.jitter_per_hour, 10.0, 0.1);
}

TEST(ElasticityTest, InstabilityDetectsOpposingMoves) {
  StepSeries demand, supply;
  demand.append(0, 1.0);
  supply.append(0, 2.0);
  // Demand rises while supply falls: an opposing move.
  demand.append(10 * sim::kMinute, 5.0);
  supply.append(10 * sim::kMinute, 1.0);
  const auto r = elasticity_report(demand, supply, 0, kHour);
  EXPECT_GT(r.instability, 0.0);
}

TEST(ElasticityTest, WorseTrackingScoresLower) {
  StepSeries demand;
  demand.append(0, 10.0);
  StepSeries good, bad;
  good.append(0, 9.0);
  bad.append(0, 2.0);
  const auto rg = elasticity_report(demand, good, 0, kHour);
  const auto rb = elasticity_report(demand, bad, 0, kHour);
  EXPECT_GT(elasticity_score(rg), elasticity_score(rb));
}

TEST(ElasticityTest, EmptyHorizonIsSafe) {
  StepSeries demand, supply;
  const auto r = elasticity_report(demand, supply, 100, 100);
  EXPECT_DOUBLE_EQ(r.accuracy_under, 0.0);
}

// ---- reporting -----------------------------------------------------------------------

TEST(TableTest, FormatsAlignedTable) {
  Table t({"policy", "score"});
  t.add_row({"fcfs", "0.71"});
  t.add_row({"backfill", "0.92"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| policy   | score |"), std::string::npos);
  EXPECT_NE(s.find("| backfill | 0.92  |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumberFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.5), "50.0%");
}

TEST(TableTest, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(ReportTest, BannerAndKv) {
  std::ostringstream os;
  print_banner(os, "Experiment E1");
  print_kv(os, "seed", "42");
  const std::string s = os.str();
  EXPECT_NE(s.find("Experiment E1"), std::string::npos);
  EXPECT_NE(s.find("seed: 42"), std::string::npos);
}

TEST(TableTest, RowlessTablePrintsHeaderOnly) {
  Table t({"col-a", "col-b"});
  EXPECT_EQ(t.rows(), 0u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("col-a"), std::string::npos);
  EXPECT_NE(s.find("col-b"), std::string::npos);
  // Top rule + header + separator rule + bottom rule, no row lines.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(TableTest, ColumnsWidenToWidestCell) {
  Table t({"x"});
  t.add_row({"a-very-wide-cell"});
  t.add_row({"s"});
  const std::string s = t.to_string();
  // Every line of the frame must span the widest cell.
  std::istringstream lines(s);
  std::string line;
  std::size_t width = 0;
  while (std::getline(lines, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
  EXPECT_GT(width, std::string("a-very-wide-cell").size());
}

TEST(TableTest, PrintAndToStringAgree) {
  Table t({"h"});
  t.add_row({"v"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(os.str(), t.to_string());
}

// ---- elasticity edge cases --------------------------------------------------

TEST(ElasticityTest, EmptySeriesActAsZeroDemandAndSupply) {
  StepSeries empty;
  StepSeries supply;
  supply.append(0, 4.0);
  // No demand at all: everything provisioned is waste, nothing is unmet.
  const auto over = elasticity_report(empty, supply, 0, kHour);
  EXPECT_DOUBLE_EQ(over.accuracy_under, 0.0);
  EXPECT_DOUBLE_EQ(over.accuracy_over, 4.0);
  EXPECT_DOUBLE_EQ(over.timeshare_under, 0.0);
  EXPECT_DOUBLE_EQ(over.timeshare_over, 1.0);
  EXPECT_DOUBLE_EQ(over.avg_demand, 0.0);
  // No supply at all: all demand is unmet for the whole horizon.
  StepSeries demand;
  demand.append(0, 2.0);
  const auto under = elasticity_report(demand, empty, 0, kHour);
  EXPECT_DOUBLE_EQ(under.accuracy_under, 2.0);
  EXPECT_DOUBLE_EQ(under.timeshare_under, 1.0);
  EXPECT_EQ(under.adaptations, 0u);
  // Risk is fully realized when starved the entire horizon.
  EXPECT_GT(operational_risk(under), 0.0);
  EXPECT_LE(operational_risk(under), 1.0);
}

TEST(ElasticityTest, SingleSampleSeriesHoldsForWholeHorizon) {
  StepSeries demand, supply;
  demand.append(0, 3.0);
  supply.append(0, 3.0);
  const auto r = elasticity_report(demand, supply, 0, kHour);
  EXPECT_DOUBLE_EQ(r.accuracy_under, 0.0);
  EXPECT_DOUBLE_EQ(r.accuracy_over, 0.0);
  EXPECT_DOUBLE_EQ(r.avg_demand, 3.0);
  EXPECT_DOUBLE_EQ(r.avg_supply, 3.0);
  EXPECT_EQ(r.adaptations, 0u);
  EXPECT_DOUBLE_EQ(r.jitter_per_hour, 0.0);
}

TEST(StepSeriesTest, TimeAverageOfEmptyOrDegenerateWindowIsZero) {
  StepSeries s;
  EXPECT_DOUBLE_EQ(s.time_average(0, kHour), 0.0);
  s.append(0, 5.0);
  EXPECT_DOUBLE_EQ(s.time_average(kHour, kHour), 0.0);  // zero-width window
}

TEST(AccumulatorTest, MergeOfDisjointWindowsMatchesDirectFeed) {
  // Two accumulators covering disjoint sample windows must merge into the
  // same state as one accumulator that saw everything (the sweep contract:
  // per-cell partials folded in flat order).
  Accumulator lo, hi, all;
  for (double x : {1.0, 2.0, 3.0}) {
    lo.add(x);
    all.add(x);
  }
  for (double x : {100.0, 200.0}) {
    hi.add(x);
    all.add(x);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), all.count());
  EXPECT_DOUBLE_EQ(lo.sum(), all.sum());
  EXPECT_DOUBLE_EQ(lo.mean(), all.mean());
  EXPECT_NEAR(lo.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(lo.min(), 1.0);
  EXPECT_DOUBLE_EQ(lo.max(), 200.0);
  EXPECT_DOUBLE_EQ(lo.median(), all.median());
}

// ---- Histogram (the single binning implementation) --------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Non-positive and degenerate values land in bucket 0.
  EXPECT_EQ(Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_of(-3.0), 0u);
  // [1, 2) is the anchor bucket.
  const auto anchor = static_cast<std::size_t>(Histogram::kZeroExponentBucket);
  EXPECT_EQ(Histogram::bucket_of(1.0), anchor);
  EXPECT_EQ(Histogram::bucket_of(1.999), anchor);
  EXPECT_EQ(Histogram::bucket_of(2.0), anchor + 1);
  EXPECT_EQ(Histogram::bucket_of(0.5), anchor - 1);
  // bucket_floor inverts bucket_of at bucket starts.
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(anchor), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(anchor + 3), 8.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_floor(0), 0.0);
  // Extremes clamp instead of indexing out of range.
  EXPECT_EQ(Histogram::bucket_of(1e308), Histogram::kBuckets - 1);
  EXPECT_GE(Histogram::bucket_of(1e-300), 1u);
}

TEST(HistogramTest, RecordTracksExactStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (double v : {1.0, 3.0, 9.0, 27.0}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 40.0);
  EXPECT_DOUBLE_EQ(h.mean(), 10.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 27.0);
  // Quantiles are bucket-resolution but must stay within [min, max].
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_GE(h.quantile(q), h.min());
    EXPECT_LE(h.quantile(q), h.max());
  }
}

TEST(HistogramTest, MergeIsAssociativeOnIntegerState) {
  // (a+b)+c and a+(b+c) must agree bin-for-bin — the property that lets
  // sweeps merge per-cell histograms in any grouping, as long as the
  // ordering contract for floating min/max/sum is respected. Integer
  // values keep the sums exactly representable.
  auto fill = [](Histogram& h, int lo, int hi) {
    for (int v = lo; v < hi; ++v) h.record(v);
  };
  Histogram a1, b1, c1;
  fill(a1, 1, 50);
  fill(b1, 50, 120);
  fill(c1, 120, 300);
  Histogram a2, b2, c2;
  fill(a2, 1, 50);
  fill(b2, 50, 120);
  fill(c2, 120, 300);

  // left: (a+b)+c
  a1.merge(b1);
  a1.merge(c1);
  // right: a+(b+c)
  b2.merge(c2);
  a2.merge(b2);

  EXPECT_EQ(a1.count(), a2.count());
  EXPECT_DOUBLE_EQ(a1.sum(), a2.sum());
  EXPECT_DOUBLE_EQ(a1.min(), a2.min());
  EXPECT_DOUBLE_EQ(a1.max(), a2.max());
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(a1.bin(b), a2.bin(b)) << "bucket " << b;
  }
  EXPECT_DOUBLE_EQ(a1.quantile(0.5), a2.quantile(0.5));
}

TEST(HistogramTest, MergeWithEmptyIsIdentity) {
  Histogram h, empty;
  h.record(4.0);
  h.merge(empty);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 4.0);
  Histogram h2;
  h2.merge(h);  // empty absorbing non-empty adopts its min/max
  EXPECT_EQ(h2.count(), 1u);
  EXPECT_DOUBLE_EQ(h2.min(), 4.0);
  EXPECT_DOUBLE_EQ(h2.max(), 4.0);
}

TEST(HistogramTest, AccumulatorExportUsesSameBinning) {
  // Satellite contract: Accumulator::histogram() goes through
  // Histogram::record, so the two paths can never disagree on binning.
  Accumulator acc(true);
  Histogram direct;
  for (double v : {0.25, 1.0, 1.5, 2.0, 7.0, 300.0, 0.0}) {
    acc.add(v);
    direct.record(v);
  }
  const Histogram via = acc.histogram();
  EXPECT_EQ(via.count(), direct.count());
  EXPECT_DOUBLE_EQ(via.sum(), direct.sum());
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(via.bin(b), direct.bin(b));
  }
}

TEST(HistogramTest, AccumulatorExportWithoutSamplesThrows) {
  Accumulator acc(false);
  acc.add(1.0);
  EXPECT_THROW((void)acc.histogram(), std::logic_error);
}

TEST(HistogramTest, QuantileBucketNearestRank) {
  // quantile_bucket is nearest-rank over the bins: with 4 samples in
  // distinct buckets, q=0 hits the first, q=1 the last, and the midpoints
  // walk the ranks in order.
  Histogram h;
  for (double v : {1.0, 3.0, 9.0, 27.0}) h.record(v);
  EXPECT_EQ(h.quantile_bucket(0.0), Histogram::bucket_of(1.0));
  EXPECT_EQ(h.quantile_bucket(0.34), Histogram::bucket_of(3.0));
  EXPECT_EQ(h.quantile_bucket(0.67), Histogram::bucket_of(9.0));
  EXPECT_EQ(h.quantile_bucket(1.0), Histogram::bucket_of(27.0));
  // Out-of-range q clamps instead of indexing out of the bins.
  EXPECT_EQ(h.quantile_bucket(-1.0), Histogram::bucket_of(1.0));
  EXPECT_EQ(h.quantile_bucket(2.0), Histogram::bucket_of(27.0));
}

TEST(HistogramTest, QuantileBucketEmptyAndSingleSample) {
  Histogram empty;
  // The empty sentinel is kBuckets (no bucket holds rank 0), and the
  // point estimate degrades to 0.
  EXPECT_EQ(empty.quantile_bucket(0.5), Histogram::kBuckets);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Histogram one;
  one.record(5.0);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(one.quantile_bucket(q), Histogram::bucket_of(5.0));
    // A single sample is its own quantile at every q: the bucket midpoint
    // clamps to [min, max] = [5, 5].
    EXPECT_DOUBLE_EQ(one.quantile(q), 5.0);
  }
}

TEST(HistogramTest, QuantileErrorBoundedByHoldingBucket) {
  // The honest-resolution contract: the true quantile lies inside the
  // holding bucket, and the point estimate is inside the same bucket
  // clamped to [min, max] — i.e. within a factor of 2 of the truth for
  // any positive sample (log2 bins).
  Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(0.37 * i);
  for (double v : values) h.record(v);
  for (double q : {0.5, 0.95, 0.99, 0.999}) {
    const double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const std::size_t b = h.quantile_bucket(q);
    ASSERT_LT(b, Histogram::kBuckets);
    EXPECT_GE(exact, Histogram::bucket_floor(b));
    if (b + 1 < Histogram::kBuckets) {
      EXPECT_LT(exact, Histogram::bucket_floor(b + 1));
    }
    const double est = h.quantile(q);
    EXPECT_GT(est, exact / 2.0);
    EXPECT_LT(est, exact * 2.0);
  }
}

TEST(HistogramTest, QuantileStableUnderMerge) {
  // Merging per-cell histograms must reproduce the direct-feed quantiles
  // exactly (integer bin state), regardless of how samples were split.
  Histogram direct, a, b, c;
  for (int i = 0; i < 900; ++i) {
    const double v = 1.0 + (i * 37) % 500;
    direct.record(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
  }
  a.merge(b);
  a.merge(c);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(a.quantile_bucket(q), direct.quantile_bucket(q)) << "q=" << q;
    EXPECT_DOUBLE_EQ(a.quantile(q), direct.quantile(q)) << "q=" << q;
  }
}

TEST(StatsTest, Hex16FormatsFixedWidth) {
  EXPECT_EQ(hex16(0), "0000000000000000");
  EXPECT_EQ(hex16(0xdeadbeefull), "00000000deadbeef");
  EXPECT_EQ(hex16(~0ull), "ffffffffffffffff");
}

}  // namespace
}  // namespace mcs::metrics
