// SampleEstimator edge cases: the zero-match variance floor (a sample that
// saw no matching row must NOT report itself perfectly confident), empty
// samples/strata, and the HT SUM estimator.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "sampling/sample_estimator.h"
#include "sampling/sample_index.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"

namespace entropydb {
namespace {

TEST(SampleEstimatorTest, ZeroMatchingRowsReportsFiniteMissFloor) {
  auto table = testutil::RandomTable({4, 4}, 500, 301);
  auto sample = UniformSampler::Create(*table, 0.1, 5);
  ASSERT_TRUE(sample.ok());
  SampleEstimator est(*sample);
  // Weight is 10 for every row, so the floor is 10 * 9.
  EXPECT_DOUBLE_EQ(est.MissFloor(), 90.0);

  // A predicate no sampled row can match (empty code set).
  CountingQuery q(2);
  q.Where(0, AttrPredicate::InSet({}));
  auto e = est.Count(q);
  EXPECT_DOUBLE_EQ(e.expectation, 0.0);
  EXPECT_TRUE(std::isfinite(e.variance));
  EXPECT_DOUBLE_EQ(e.variance, 90.0);
}

TEST(SampleEstimatorTest, FullSampleMissFloorIsZero) {
  // fraction 1 => weights 1: a zero count from the full data IS exact, so
  // the floor must not manufacture uncertainty.
  auto table = testutil::RandomTable({4, 4}, 200, 302);
  auto sample = UniformSampler::Create(*table, 1.0, 5);
  ASSERT_TRUE(sample.ok());
  SampleEstimator est(*sample);
  EXPECT_DOUBLE_EQ(est.MissFloor(), 0.0);
  CountingQuery q(2);
  q.Where(0, AttrPredicate::InSet({}));
  EXPECT_DOUBLE_EQ(est.Count(q).variance, 0.0);
}

TEST(SampleEstimatorTest, EmptyStratifiedSampleStaysFinite) {
  // An empty base table has no strata at all; the estimator must still
  // produce a finite answer from the nominal 1/fraction weight.
  auto table = testutil::MakeTable({3, 3}, {});
  ASSERT_NE(table, nullptr);
  auto sample = StratifiedSampler::Create(*table, 0, 1, 0.02, 7);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 0u);
  SampleEstimator est(*sample);
  CountingQuery q(2);
  q.Where(0, AttrPredicate::Point(1));
  auto e = est.Count(q);
  EXPECT_DOUBLE_EQ(e.expectation, 0.0);
  EXPECT_TRUE(std::isfinite(e.variance));
  EXPECT_DOUBLE_EQ(e.variance, 50.0 * 49.0);  // nominal weight 1/0.02
}

TEST(SampleEstimatorTest, SumMatchesHandComputedExpansion) {
  // Two-attribute table where every row is kept (fraction 1 on a tiny
  // stratified draw would complicate weights; use uniform at 0.5 and check
  // the expansion identity instead).
  auto table = testutil::RandomTable({3, 4}, 2000, 303);
  auto sample = UniformSampler::Create(*table, 0.5, 11);
  ASSERT_TRUE(sample.ok());
  SampleEstimator est(*sample);
  std::vector<double> values = {1.0, 10.0, 100.0};
  CountingQuery q(2);
  q.Where(1, AttrPredicate::Range(0, 1));
  auto sum = est.Sum(0, values, q);
  // Hand-compute from the sample itself.
  double expect = 0.0, var = 0.0;
  const Table& rows = *sample->rows;
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    if (rows.at(r, 1) > 1) continue;
    const double w = sample->weights[r];
    const double v = values[rows.at(r, 0)];
    expect += w * v;
    var += w * (w - 1.0) * v * v;
  }
  EXPECT_NEAR(sum.expectation, expect, 1e-9);
  EXPECT_NEAR(sum.variance, var, 1e-9);
}

TEST(SampleEstimatorTest, SumZeroMatchFloorScalesByLargestValue) {
  auto table = testutil::RandomTable({3, 4}, 500, 304);
  auto sample = UniformSampler::Create(*table, 0.1, 13);
  ASSERT_TRUE(sample.ok());
  SampleEstimator est(*sample);
  std::vector<double> values = {1.0, -20.0, 3.0};
  CountingQuery q(2);
  q.Where(1, AttrPredicate::InSet({}));
  auto sum = est.Sum(0, values, q);
  EXPECT_DOUBLE_EQ(sum.expectation, 0.0);
  EXPECT_DOUBLE_EQ(sum.variance, 90.0 * 400.0);  // floor * max(values^2)
}

TEST(SampleEstimatorTest, AnswerUntilStopsOnlyWhenItCannotWin) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto table = testutil::RandomTable({6, 5, 4}, 3000, 311);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.05, 9);
  ASSERT_TRUE(drawn.ok());
  WeightedSample indexed = *drawn;
  indexed.index = SampleIndex::Build(*indexed.rows);
  Rng rng(312);
  size_t stopped = 0;
  for (const WeightedSample* sample : {&*drawn, &indexed}) {
    SampleEstimator est(*sample);
    for (int trial = 0; trial < 300; ++trial) {
      const CountingQuery q = testutil::RandomQuery(rng, *table);
      const QueryEstimate full = est.Count(q);
      const double bound = full.variance * 2.0 * rng.NextDouble();
      auto got = est.AnswerUntil(q, bound);
      ASSERT_TRUE(got.ok());
      if (got->variance < bound) {
        // Not stopped: bitwise the full walk.
        EXPECT_EQ(got->expectation, full.expectation);
        EXPECT_EQ(got->variance, full.variance);
      } else {
        EXPECT_LE(got->variance, full.variance);
        stopped += got->variance != full.variance;
      }
      // A bound that can never be reached walks in full.
      for (double never : {kInf, kNaN}) {
        auto all = est.AnswerUntil(q, never);
        ASSERT_TRUE(all.ok());
        EXPECT_EQ(all->expectation, full.expectation);
        EXPECT_EQ(all->variance, full.variance);
      }
    }
  }
  EXPECT_GT(stopped, 0u);
  auto mismatch = SampleEstimator(*drawn).AnswerUntil(CountingQuery(2), 1.0);
  EXPECT_TRUE(mismatch.status().IsInvalidArgument());
}

TEST(SampleEstimatorTest, AnswerUntilWalksInFullUnlessEveryTermIsNonNegative) {
  // The first row's term w (w - 1) is 90, so a walk allowed to stop would
  // stop there against a bound of 80. With the rest weighted 0.5 (terms
  // -0.25) the full variance ends at 65, below the bound: stopping would
  // hide a winner. With the rest weighted 1 and a last NaN weight, only
  // the full walk reaches the NaN. Either weight disables the stop.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<Code>> rows(101, std::vector<Code>{0});
  const CountingQuery q(1);

  WeightedSample fractional;
  fractional.rows = testutil::MakeTable({2}, rows);
  fractional.weights.assign(101, 0.5);
  fractional.weights[0] = 10.0;
  auto got = SampleEstimator(fractional).AnswerUntil(q, 80.0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->expectation, 60.0);
  EXPECT_EQ(got->variance, 65.0);

  WeightedSample nan = fractional;
  nan.weights.assign(101, 1.0);
  nan.weights[0] = 10.0;
  nan.weights.back() = kNaN;
  got = SampleEstimator(nan).AnswerUntil(q, 80.0);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(std::isnan(got->expectation));
  EXPECT_TRUE(std::isnan(got->variance));
}

}  // namespace
}  // namespace entropydb
