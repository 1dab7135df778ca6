#include "maxent/answerer.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"
#include "maxent/solver.h"
#include "oracles/dense_model.h"

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

Solved SolveFor(const Table& table, std::vector<MultiDimStatistic> stats) {
  auto reg = MakeRegistry(table, std::move(stats));
  auto poly = CompressedPolynomial::Build(reg);
  EXPECT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  SolverOptions opts;
  opts.max_iterations = 200;
  opts.tolerance = 1e-10;
  MaxEntSolver solver(reg, *poly, opts);
  EXPECT_TRUE(solver.Solve(&st).ok());
  return Solved{std::move(reg), std::move(*poly), std::move(st)};
}

TEST(AnswererTest, MatchesDenseModelOnRandomQueries) {
  auto table = RandomTable({5, 6, 4}, 600, 61);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 5, 62));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  auto dense = DenseMaxEntModel::Create(s.reg);
  ASSERT_TRUE(dense.ok());

  Rng rng(63);
  for (int trial = 0; trial < 40; ++trial) {
    CountingQuery q(3);
    for (AttrId a = 0; a < 3; ++a) {
      if (rng.NextBernoulli(0.4)) continue;
      Code lo = static_cast<Code>(rng.Uniform(s.reg.domain_size(a)));
      Code hi =
          lo + static_cast<Code>(rng.Uniform(s.reg.domain_size(a) - lo));
      q.Where(a, AttrPredicate::Range(lo, hi));
    }
    auto est = answerer.Answer(q);
    ASSERT_TRUE(est.ok());
    EXPECT_NEAR(est->expectation, dense->CountEstimate(s.state, q), 1e-6);
  }
}

TEST(AnswererTest, OneDStatisticsAreReproducedExactly) {
  // Querying exactly a 1-D statistic must return its target (that is what
  // the solver fitted).
  auto table = RandomTable({5, 4}, 500, 64);
  auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 4, 65));
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  for (AttrId a = 0; a < 2; ++a) {
    for (Code v = 0; v < s.reg.domain_size(a); ++v) {
      CountingQuery q(2);
      q.Where(a, AttrPredicate::Point(v));
      auto est = answerer.Answer(q);
      ASSERT_TRUE(est.ok());
      EXPECT_NEAR(est->expectation, s.reg.OneDTarget(a, v), 1e-4);
    }
  }
}

TEST(AnswererTest, TwoDStatisticsAreReproducedExactly) {
  auto table = RandomTable({6, 6}, 800, 66);
  auto stats = RandomDisjointStats(*table, 0, 1, 6, 67);
  auto s = SolveFor(*table, stats);
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  for (const auto& stat : stats) {
    CountingQuery q(2);
    q.Where(stat.attrs[0], AttrPredicate::Range(stat.ranges[0].lo,
                                                stat.ranges[0].hi));
    q.Where(stat.attrs[1], AttrPredicate::Range(stat.ranges[1].lo,
                                                stat.ranges[1].hi));
    auto est = answerer.Answer(q);
    ASSERT_TRUE(est.ok());
    EXPECT_NEAR(est->expectation, stat.target, 1e-3);
  }
}

TEST(AnswererTest, FullCoverage2DStatsMakePointQueriesExact) {
  // A complete partition of a 2-attribute table into single cells pins the
  // model to the exact joint distribution.
  auto table = RandomTable({4, 3}, 400, 68);
  std::vector<MultiDimStatistic> stats;
  ExactEvaluator eval(*table);
  auto hist = eval.Histogram2D(0, 1);
  for (Code a = 0; a < 4; ++a) {
    for (Code b = 0; b < 3; ++b) {
      stats.push_back(Make2DStatistic(
          0, {a, a}, 1, {b, b}, static_cast<double>(hist[a * 3 + b])));
    }
  }
  auto s = SolveFor(*table, stats);
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  for (Code a = 0; a < 4; ++a) {
    for (Code b = 0; b < 3; ++b) {
      CountingQuery q(2);
      q.Where(0, AttrPredicate::Point(a)).Where(1, AttrPredicate::Point(b));
      auto est = answerer.Answer(q);
      ASSERT_TRUE(est.ok());
      EXPECT_NEAR(est->expectation, static_cast<double>(hist[a * 3 + b]),
                  1e-3);
    }
  }
}

TEST(AnswererTest, EmptyQueryReturnsN) {
  auto table = RandomTable({4, 4}, 300, 69);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  auto est = answerer.Answer(CountingQuery(2));
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->expectation, 300.0, 1e-9);
  EXPECT_NEAR(est->variance, 0.0, 1e-9);  // p = 1
}

TEST(AnswererTest, ImpossibleQueryReturnsZero) {
  auto table = RandomTable({4, 4}, 300, 70);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  CountingQuery q(2);
  q.Where(0, AttrPredicate::InSet({}));
  auto est = answerer.Answer(q);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->expectation, 0.0);
  EXPECT_DOUBLE_EQ(est->variance, 0.0);
}

TEST(AnswererTest, VarianceIsBinomial) {
  auto table = RandomTable({4, 4}, 400, 71);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  CountingQuery q(2);
  q.Where(0, AttrPredicate::Point(1));
  auto est = answerer.Answer(q);
  ASSERT_TRUE(est.ok());
  double p = est->expectation / 400.0;
  EXPECT_NEAR(est->variance, 400.0 * p * (1.0 - p), 1e-6);
  EXPECT_NEAR(est->StdDev() * est->StdDev(), est->variance, 1e-9);
}

TEST(AnswererTest, ConfidenceIntervalClampsToValidCounts) {
  QueryEstimate est;
  est.expectation = 2.0;
  est.variance = 100.0;
  auto [lo, hi] = est.ConfidenceInterval(2.0, 1000.0);
  EXPECT_DOUBLE_EQ(lo, 0.0);  // would be negative unclamped
  EXPECT_GT(hi, est.expectation);
  EXPECT_LE(hi, 1000.0);
}

TEST(AnswererTest, RoundedCount) {
  QueryEstimate a;
  a.expectation = 0.4;
  EXPECT_DOUBLE_EQ(a.RoundedCount(), 0.0);
  a.expectation = 0.6;
  EXPECT_DOUBLE_EQ(a.RoundedCount(), 1.0);
}

/// Every key of AnswerGroupBy(attrs, keys, base) must equal, bitwise,
/// Answer(base with each attrs[i] pinned to key[i]); a key the base
/// excludes on its own attribute is {0, 0}.
void ExpectGroupByMatchesAnswers(const QueryAnswerer& answerer,
                                 const std::vector<AttrId>& attrs,
                                 const std::vector<std::vector<Code>>& keys,
                                 const CountingQuery& base) {
  auto groups = answerer.AnswerGroupBy(attrs, keys, base);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), keys.size());
  for (const auto& key : keys) {
    CountingQuery pinned = base;
    bool kept = true;
    for (size_t i = 0; i < attrs.size(); ++i) {
      kept = kept && base.predicate(attrs[i]).Matches(key[i]);
      pinned.Where(attrs[i], AttrPredicate::Point(key[i]));
    }
    QueryEstimate want;
    if (kept) {
      auto single = answerer.Answer(pinned);
      ASSERT_TRUE(single.ok());
      want = *single;
    }
    EXPECT_EQ(groups->at(key).expectation, want.expectation);
    EXPECT_EQ(groups->at(key).variance, want.variance);
  }
}

/// A random base filter: per attribute ANY, a point, a range or an IN set.
CountingQuery RandomBase(Rng& rng, const VariableRegistry& reg) {
  CountingQuery q(reg.num_attributes());
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    const uint32_t n = reg.domain_size(a);
    const Code lo = static_cast<Code>(rng.Uniform(n));
    switch (rng.Uniform(4)) {
      case 0:
        break;
      case 1:
        q.Where(a, AttrPredicate::Point(lo));
        break;
      case 2:
        q.Where(a, AttrPredicate::Range(
                       lo, lo + static_cast<Code>(rng.Uniform(n - lo))));
        break;
      default: {
        std::vector<Code> codes;
        for (Code v = 0; v < n; ++v) {
          if (rng.NextBernoulli(0.5)) codes.push_back(v);
        }
        q.Where(a, AttrPredicate::InSet(std::move(codes)));
      }
    }
  }
  return q;
}

TEST(AnswererTest, GroupByMatchesIndividualAnswers) {
  {
    auto table = RandomTable({4, 5}, 400, 72);
    auto s = SolveFor(*table, RandomDisjointStats(*table, 0, 1, 4, 73));
    QueryAnswerer answerer(s.reg, s.poly, s.state);
    ExpectGroupByMatchesAnswers(answerer, {0, 1}, {{0, 0}, {1, 2}, {3, 4}},
                                CountingQuery(2));
  }
  // Every key of several shapes under random bases (points, ranges and IN
  // sets on grouped and other attributes) on a hub (a star on A0), a chain
  // and a 1-D-only model.
  auto table = RandomTable({5, 4, 6, 4}, 500, 75);
  std::vector<MultiDimStatistic> hub, chain;
  for (AttrId b = 1; b < 4; ++b) {
    auto st = RandomDisjointStats(*table, 0, b, 3, 75 + b);
    hub.insert(hub.end(), st.begin(), st.end());
  }
  for (AttrId a = 0; a < 2; ++a) {
    auto st = RandomDisjointStats(*table, a, a + 1, 4, 80 + a);
    chain.insert(chain.end(), st.begin(), st.end());
  }
  const std::vector<std::vector<AttrId>> shapes = {
      {0}, {3}, {1, 2}, {0, 3}, {2, 0, 1}};
  for (const auto& stats : {hub, chain, std::vector<MultiDimStatistic>{}}) {
    auto s = SolveFor(*table, stats);
    QueryAnswerer answerer(s.reg, s.poly, s.state);
    Rng rng(85);
    for (int trial = 0; trial < 6; ++trial) {
      const CountingQuery base = RandomBase(rng, s.reg);
      for (const auto& attrs : shapes) {
        std::vector<std::vector<Code>> keys = {{}};
        for (AttrId a : attrs) {
          std::vector<std::vector<Code>> longer;
          for (const auto& key : keys) {
            for (Code v = 0; v < s.reg.domain_size(a); ++v) {
              longer.push_back(key);
              longer.back().push_back(v);
            }
          }
          keys = std::move(longer);
        }
        ExpectGroupByMatchesAnswers(answerer, attrs, keys, base);
      }
    }
  }
}

TEST(AnswererTest, ArityMismatchRejected) {
  auto table = RandomTable({4, 4}, 100, 74);
  auto s = SolveFor(*table, {});
  QueryAnswerer answerer(s.reg, s.poly, s.state);
  EXPECT_TRUE(
      answerer.Answer(CountingQuery(3)).status().IsInvalidArgument());
}

}  // namespace
}  // namespace entropydb
