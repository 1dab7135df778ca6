// Tests for the linear-aggregate extensions: batched whole-attribute
// group-by, SUM, and AVG (Sec 3.1 linear queries beyond pure counting).

#include <gtest/gtest.h>

#include "../test_util.h"
#include "maxent/answerer.h"
#include "maxent/solver.h"

namespace entropydb {
namespace {

using testutil::MakeRegistry;
using testutil::RandomDisjointStats;
using testutil::RandomTable;

struct Solved {
  VariableRegistry reg;
  CompressedPolynomial poly;
  ModelState state;
};

/// Headline estimates off the unified Answer surface, so the assertions
/// below read the same as the counting ones.
Result<QueryEstimate> Sum(const QueryAnswerer& answerer, AttrId a,
                          std::vector<double> weights,
                          const CountingQuery& q) {
  ASSIGN_OR_RETURN(QueryResult r, answerer.Answer(AggregateQuery::Sum(
                                      a, std::move(weights), q)));
  return r.estimate;
}

Result<QueryEstimate> Avg(const QueryAnswerer& answerer, AttrId a,
                          std::vector<double> weights,
                          const CountingQuery& q) {
  ASSIGN_OR_RETURN(QueryResult r, answerer.Answer(AggregateQuery::Avg(
                                      a, std::move(weights), q)));
  return r.estimate;
}

Solved SolveFor(const Table& table, std::vector<MultiDimStatistic> stats) {
  auto reg = MakeRegistry(table, std::move(stats));
  auto poly = CompressedPolynomial::Build(reg);
  EXPECT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  SolverOptions opts;
  opts.max_iterations = 200;
  opts.tolerance = 1e-10;
  EXPECT_TRUE(MaxEntSolver(reg, *poly, opts).Solve(&st).ok());
  return Solved{std::move(reg), std::move(*poly), std::move(st)};
}

TEST(AggregateTest, HandedInFilterCountLeavesSumAndAvgBitwiseUnchanged) {
  // The router hands the summary the filter count it already evaluated;
  // the SUM and AVG answers must be exactly the ones computed without it.
  auto table = RandomTable({6, 5, 7, 4}, 2000, 2207);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 6, 2208));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  std::vector<double> weights(7);
  for (size_t v = 0; v < weights.size(); ++v) weights[v] = 1.5 * v - 2.0;
  Rng rng(2209);
  for (int trial = 0; trial < 150; ++trial) {
    const CountingQuery q = testutil::RandomQuery(rng, *table);
    auto count = answerer.Answer(q);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    for (const AggregateQuery& agg : {AggregateQuery::Sum(2, weights, q),
                                      AggregateQuery::Avg(2, weights, q)}) {
      auto fresh = answerer.Answer(agg);
      auto reused = answerer.Answer(agg, *count);
      ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
      ASSERT_TRUE(reused.ok()) << reused.status().ToString();
      EXPECT_EQ(reused->estimate.expectation, fresh->estimate.expectation);
      EXPECT_EQ(reused->estimate.variance, fresh->estimate.variance);
      EXPECT_EQ(reused->sum.expectation, fresh->sum.expectation);
      EXPECT_EQ(reused->sum.variance, fresh->sum.variance);
      EXPECT_EQ(reused->count.expectation, fresh->count.expectation);
      EXPECT_EQ(reused->count.variance, fresh->count.variance);
      EXPECT_EQ(reused->sum_count_cov, fresh->sum_count_cov);
    }
  }
}

TEST(AggregateTest, CountLegIsBitwiseTheFilterCount) {
  // SUM and AVG take their count leg from the per-value pass's own masked
  // evaluation when the filter leaves the aggregated attribute free, and
  // from a second evaluation otherwise: either way it must be
  // Answer(where) bitwise. The (0, 1) and (1, 2) statistics chain into
  // one component, so the shared evaluation walks real groups.
  auto table = RandomTable({6, 5, 7, 4}, 2000, 2231);
  auto stats = RandomDisjointStats(*table, 0, 1, 6, 2232);
  auto chained = RandomDisjointStats(*table, 1, 2, 5, 2233);
  stats.insert(stats.end(), chained.begin(), chained.end());
  auto s = SolveFor(*table, std::move(stats));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  Rng rng(2234);
  size_t free_attr = 0, constrained_attr = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const CountingQuery q = testutil::RandomQuery(rng, *table);
    auto count = answerer.Answer(q);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    for (AttrId a = 0; a < table->num_attributes(); ++a) {
      std::vector<double> weights(table->domain(a).size());
      for (size_t v = 0; v < weights.size(); ++v) weights[v] = 0.75 * v + 1;
      (q.predicate(a).is_any() ? free_attr : constrained_attr) += 1;
      for (const AggregateQuery& agg : {AggregateQuery::Sum(a, weights, q),
                                        AggregateQuery::Avg(a, weights, q)}) {
        auto got = answerer.Answer(agg);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got->count.expectation, count->expectation);
        EXPECT_EQ(got->count.variance, count->variance);
      }
    }
  }
  EXPECT_GT(free_attr, 0u);
  EXPECT_GT(constrained_attr, 0u);
}

TEST(GroupByAttributeTest, MatchesPointQueries) {
  auto table = RandomTable({5, 6, 4}, 700, 131);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 5, 132));
  QueryAnswerer answerer(s.reg, s.poly, s.state);

  CountingQuery base(3);
  base.Where(2, AttrPredicate::Range(1, 2));
  auto batched = answerer.AnswerGroupByAttribute(1, base);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->size(), 6u);
  for (Code v = 0; v < 6; ++v) {
    CountingQuery q = base;
    q.Where(1, AttrPredicate::Point(v));
    auto single = answerer.Answer(q);
    ASSERT_TRUE(single.ok());
    EXPECT_NEAR((*batched)[v].expectation, single->expectation, 1e-8)
        << "value " << v;
    EXPECT_NEAR((*batched)[v].variance, single->variance, 1e-6);
  }
}

TEST(GroupByAttributeTest, RespectsPredicateOnGroupedAttribute) {
  auto table = RandomTable({5, 4}, 300, 133);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  CountingQuery base(2);
  base.Where(0, AttrPredicate::Range(1, 2));  // restrict the grouped attr
  auto batched = answerer.AnswerGroupByAttribute(0, base);
  ASSERT_TRUE(batched.ok());
  EXPECT_DOUBLE_EQ((*batched)[0].expectation, 0.0);
  EXPECT_GT((*batched)[1].expectation, 0.0);
  EXPECT_GT((*batched)[2].expectation, 0.0);
  EXPECT_DOUBLE_EQ((*batched)[3].expectation, 0.0);
  EXPECT_DOUBLE_EQ((*batched)[4].expectation, 0.0);
}

TEST(GroupByAttributeTest, SumsToFilteredCount) {
  auto table = RandomTable({4, 6}, 500, 134);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 4, 135));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  CountingQuery base(2);
  base.Where(0, AttrPredicate::Point(2));
  auto batched = answerer.AnswerGroupByAttribute(1, base);
  ASSERT_TRUE(batched.ok());
  double total = 0.0;
  for (const auto& e : *batched) total += e.expectation;
  auto count = answerer.Answer(base);
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(total, count->expectation, 1e-6);
}

TEST(GroupByAttributeTest, ValidatesArguments) {
  auto table = RandomTable({4, 4}, 100, 136);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  EXPECT_TRUE(answerer.AnswerGroupByAttribute(9, CountingQuery(2))
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(answerer.AnswerGroupByAttribute(0, CountingQuery(5))
                  .status()
                  .IsInvalidArgument());
}

TEST(SumTest, MatchesWeightedPointQueries) {
  auto table = RandomTable({5, 5}, 600, 137);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 4, 138));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  std::vector<double> weights{1.5, 2.5, 3.5, 4.5, 5.5};  // bucket midpoints
  CountingQuery q(2);
  q.Where(1, AttrPredicate::Range(0, 2));
  auto sum = Sum(answerer, 0, weights, q);
  ASSERT_TRUE(sum.ok());
  double expected = 0.0;
  for (Code v = 0; v < 5; ++v) {
    CountingQuery pq = q;
    pq.Where(0, AttrPredicate::Point(v));
    expected += weights[v] * answerer.Answer(pq)->expectation;
  }
  EXPECT_NEAR(sum->expectation, expected, 1e-6);
  EXPECT_GT(sum->variance, 0.0);
}

TEST(SumTest, ExactWhenModelIsExact) {
  // With full single-cell statistics the model matches the data, so SUM
  // over the summary equals SUM over the table.
  auto table = RandomTable({4, 3}, 400, 139);
  ExactEvaluator eval(*table);
  auto hist = eval.Histogram2D(0, 1);
  std::vector<MultiDimStatistic> stats;
  for (Code a = 0; a < 4; ++a) {
    for (Code b = 0; b < 3; ++b) {
      stats.push_back(Make2DStatistic(
          0, {a, a}, 1, {b, b}, static_cast<double>(hist[a * 3 + b])));
    }
  }
  auto s = SolveFor(*table, stats);
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  std::vector<double> weights{10, 20, 30, 40};
  CountingQuery q(2);
  q.Where(1, AttrPredicate::Point(1));
  auto sum = Sum(answerer, 0, weights, q);
  ASSERT_TRUE(sum.ok());
  double truth = 0.0;
  for (size_t r = 0; r < table->num_rows(); ++r) {
    if (table->at(r, 1) == 1) truth += weights[table->at(r, 0)];
  }
  EXPECT_NEAR(sum->expectation, truth, 0.02 * truth + 1.0);
}

TEST(SumTest, UnitWeightsReproduceTheCountVariance) {
  // With w_v = 1 everywhere, S IS the filtered count, so the multinomial
  // moments must collapse to the Binomial n P (1 - P) that Answer reports
  // (the old independent-cells bound overstated this).
  auto table = RandomTable({5, 6}, 600, 148);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 4, 149));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  CountingQuery q(2);
  q.Where(1, AttrPredicate::Range(1, 3));
  auto sum = Sum(answerer, 0, std::vector<double>(5, 1.0), q);
  auto count = answerer.Answer(q);
  ASSERT_TRUE(sum.ok());
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(sum->expectation, count->expectation,
              1e-9 * (1.0 + count->expectation));
  EXPECT_NEAR(sum->variance, count->variance,
              1e-9 * (1.0 + count->variance));
}

TEST(SumTest, ValidatesWeightArity) {
  auto table = RandomTable({4, 4}, 100, 140);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  EXPECT_TRUE(Sum(answerer, 0, {1.0, 2.0}, CountingQuery(2))
                  .status()
                  .IsInvalidArgument());
}

TEST(AvgTest, IsSumOverCount) {
  auto table = RandomTable({5, 4}, 500, 141);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  std::vector<double> weights{0, 1, 2, 3, 4};
  CountingQuery q(2);
  q.Where(1, AttrPredicate::Range(1, 2));
  auto avg = Avg(answerer, 0, weights, q);
  auto sum = Sum(answerer, 0, weights, q);
  auto cnt = answerer.Answer(q);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->expectation, sum->expectation / cnt->expectation, 1e-9);
  // AVG lies within the weight range.
  EXPECT_GE(avg->expectation, 0.0);
  EXPECT_LE(avg->expectation, 4.0);
}

TEST(AvgTest, DeltaMethodVarianceMatchesMultinomialMoments) {
  auto table = RandomTable({5, 4}, 500, 143);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 4, 144));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  std::vector<double> weights{2.0, 3.5, 5.0, 7.0, 11.0};
  CountingQuery q(2);
  q.Where(1, AttrPredicate::Range(1, 2));
  auto avg = Avg(answerer, 0, weights, q);
  ASSERT_TRUE(avg.ok());
  EXPECT_GT(avg->variance, 0.0);

  // Recompute the delta-method formula from the same per-value counts:
  // Var(S/C) = (Var S - 2 R Cov + R^2 Var C) / C^2 with multinomial cell
  // moments.
  auto counts = answerer.AnswerGroupByAttribute(0, q);
  auto total = answerer.Answer(q);
  ASSERT_TRUE(counts.ok());
  ASSERT_TRUE(total.ok());
  const double n = s.reg.n();
  double sum = 0.0, sw2p = 0.0;
  for (Code v = 0; v < weights.size(); ++v) {
    sum += weights[v] * (*counts)[v].expectation;
    sw2p += weights[v] * weights[v] * (*counts)[v].expectation / n;
  }
  const double c = total->expectation;
  const double r = sum / c;
  const double mean_wp = sum / n;
  const double big_p = c / n;
  const double var_s = n * (sw2p - mean_wp * mean_wp);
  const double var_c = n * big_p * (1.0 - big_p);
  const double cov = n * mean_wp * (1.0 - big_p);
  const double expected =
      (var_s - 2.0 * r * cov + r * r * var_c) / (c * c);
  EXPECT_NEAR(avg->variance, expected, 1e-12 * (1.0 + expected));
  // The AVG of weights in [2, 11] cannot be more dispersed than the range.
  EXPECT_LT(avg->StdDev(), 9.0);
}

TEST(AvgTest, ConstantWeightsHaveZeroVariance) {
  // AVG of a constant is the constant: S = c C exactly, so the ratio has
  // no dispersion and the delta method must collapse to 0.
  auto table = RandomTable({4, 4}, 300, 145);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  std::vector<double> weights(4, 6.25);
  CountingQuery q(2);
  q.Where(1, AttrPredicate::Range(0, 1));
  auto avg = Avg(answerer, 0, weights, q);
  ASSERT_TRUE(avg.ok());
  EXPECT_NEAR(avg->expectation, 6.25, 1e-9);
  EXPECT_NEAR(avg->variance, 0.0, 1e-9);
}

TEST(AvgTest, VarianceShrinksWithSelectivity) {
  // A filter matching nearly everything pins the ratio down; a narrow
  // filter leaves few effective samples and a wider interval.
  auto table = RandomTable({5, 6}, 800, 146);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 5, 147));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  std::vector<double> weights{1, 2, 3, 4, 5};
  CountingQuery wide(2);  // all values of attr 1
  CountingQuery narrow(2);
  narrow.Where(1, AttrPredicate::Point(3));
  auto wide_avg = Avg(answerer, 0, weights, wide);
  auto narrow_avg = Avg(answerer, 0, weights, narrow);
  ASSERT_TRUE(wide_avg.ok());
  ASSERT_TRUE(narrow_avg.ok());
  EXPECT_LT(wide_avg->variance, narrow_avg->variance);
}

TEST(AvgTest, ZeroCountGivesZero) {
  auto table = RandomTable({4, 4}, 100, 142);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  CountingQuery q(2);
  q.Where(1, AttrPredicate::InSet({}));  // impossible
  auto avg = Avg(answerer, 0, {1, 2, 3, 4}, q);
  ASSERT_TRUE(avg.ok());
  EXPECT_DOUBLE_EQ(avg->expectation, 0.0);
}

}  // namespace
}  // namespace entropydb
