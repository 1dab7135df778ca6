#include "maxent/solver.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "oracles/dense_model.h"

namespace entropydb {
namespace {

using testutil::MakeRegistry;
using testutil::RandomDisjointStats;
using testutil::RandomTable;

TEST(SolverTest, OneDOnlyIsExactImmediately) {
  // With only 1-D statistics the closed form alpha = s/n is the exact
  // solution; the solver must report convergence after one sweep.
  auto table = RandomTable({5, 6, 4}, 500, 41);
  auto reg = MakeRegistry(*table, {});
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  MaxEntSolver solver(reg, *poly);
  auto report = solver.Solve(&st);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  EXPECT_LE(report->iterations, 2u);
  EXPECT_LT(report->final_error, 1e-9);
}

TEST(SolverTest, MatchesAllStatisticsWithTwoDStats) {
  auto table = RandomTable({5, 6}, 800, 42);
  auto stats = RandomDisjointStats(*table, 0, 1, 6, 43);
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  SolverOptions opts;
  opts.max_iterations = 300;
  opts.tolerance = 1e-8;
  MaxEntSolver solver(reg, *poly, opts);
  auto report = solver.Solve(&st);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged) << "error " << report->final_error;

  // Verify expectations against the dense oracle, not just the solver's own
  // bookkeeping: E[<c_j, I>] must equal s_j for every statistic.
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  const double n = reg.n();
  const double full = dense->EvaluateUnmasked(st);
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    for (Code v = 0; v < reg.domain_size(a); ++v) {
      double expected = n * st.alpha[a][v] *
                        dense->AlphaDerivative(st, a, v) / full;
      EXPECT_NEAR(expected, reg.OneDTarget(a, v), 1e-5 * n)
          << "1-D statistic (" << a << ", " << v << ")";
    }
  }
  for (uint32_t j = 0; j < reg.num_multi_dim(); ++j) {
    double expected =
        n * st.delta[j] * dense->DeltaDerivative(st, j) / full;
    EXPECT_NEAR(expected, reg.multi_dim(j).target, 1e-5 * n)
        << "2-D statistic " << j;
  }
}

TEST(SolverTest, AgreesWithNaiveDenseSolver) {
  auto table = RandomTable({4, 4}, 300, 44);
  auto stats = RandomDisjointStats(*table, 0, 1, 4, 45);
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());

  ModelState fast = ModelState::InitialState(reg);
  SolverOptions opts;
  opts.max_iterations = 300;
  opts.tolerance = 1e-10;
  MaxEntSolver solver(reg, *poly, opts);
  ASSERT_TRUE(solver.Solve(&fast).ok());

  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  ModelState slow = ModelState::InitialState(reg);
  auto dense_report = dense->SolveNaive(&slow, 300, 1e-10);
  EXPECT_TRUE(dense_report.converged);

  // The MaxEnt distribution is unique, so tuple probabilities must agree
  // even if the (overcomplete) parameterizations differ.
  for (uint64_t t = 0; t < dense->space().size(); ++t) {
    auto tuple = dense->space().TupleAt(t);
    double pf = dense->TupleProbability(fast, tuple);
    double ps = dense->TupleProbability(slow, tuple);
    EXPECT_NEAR(pf, ps, 1e-6);
  }
}

TEST(SolverTest, ZeroTargetsStayPinned) {
  // Attribute value 0 of attribute 0 never occurs; its alpha must be 0.
  auto table = testutil::MakeTable(
      {3, 3}, {{1, 0}, {1, 1}, {2, 2}, {2, 0}, {1, 2}});
  auto stats = RandomDisjointStats(*table, 0, 1, 3, 46);
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  MaxEntSolver solver(reg, *poly);
  ASSERT_TRUE(solver.Solve(&st).ok());
  EXPECT_DOUBLE_EQ(st.alpha[0][0], 0.0);
  for (uint32_t j = 0; j < reg.num_multi_dim(); ++j) {
    if (reg.multi_dim(j).target == 0.0) {
      EXPECT_DOUBLE_EQ(st.delta[j], 0.0);
    }
  }
}

TEST(SolverTest, ErrorTraceIsRecordedAndDecreases) {
  auto table = RandomTable({6, 5}, 600, 47);
  auto stats = RandomDisjointStats(*table, 0, 1, 8, 48);
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  SolverOptions opts;
  opts.max_iterations = 50;
  MaxEntSolver solver(reg, *poly, opts);
  auto report = solver.Solve(&st);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->error_trace.size(), 2u);
  // Coordinate ascent on a concave dual: late error far below early error.
  EXPECT_LT(report->error_trace.back(),
            report->error_trace.front() + 1e-12);
}

TEST(SolverTest, ChainedComponentsConverge) {
  auto table = RandomTable({4, 5, 4}, 700, 49);
  auto s01 = RandomDisjointStats(*table, 0, 1, 4, 50);
  auto s12 = RandomDisjointStats(*table, 1, 2, 4, 51);
  std::vector<MultiDimStatistic> stats(s01);
  stats.insert(stats.end(), s12.begin(), s12.end());
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  SolverOptions opts;
  opts.max_iterations = 300;
  opts.tolerance = 1e-8;
  MaxEntSolver solver(reg, *poly, opts);
  auto report = solver.Solve(&st);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged) << "error " << report->final_error;
  EXPECT_LT(solver.MaxStatisticError(st), 1e-8);
}

TEST(SolverTest, MaxStatisticErrorConsistentWithDense) {
  auto table = RandomTable({4, 4}, 200, 52);
  auto reg = MakeRegistry(*table, RandomDisjointStats(*table, 0, 1, 3, 53));
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);  // unsolved
  MaxEntSolver solver(reg, *poly);
  double fast_err = solver.MaxStatisticError(st);

  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  const double n = reg.n();
  const double full = dense->EvaluateUnmasked(st);
  double dense_err = 0.0;
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    for (Code v = 0; v < reg.domain_size(a); ++v) {
      double e = n * st.alpha[a][v] * dense->AlphaDerivative(st, a, v) / full;
      dense_err = std::max(dense_err,
                           std::abs(e - reg.OneDTarget(a, v)) / n);
    }
  }
  for (uint32_t j = 0; j < reg.num_multi_dim(); ++j) {
    double e = n * st.delta[j] * dense->DeltaDerivative(st, j) / full;
    dense_err =
        std::max(dense_err, std::abs(e - reg.multi_dim(j).target) / n);
  }
  EXPECT_NEAR(fast_err, dense_err, 1e-9);
}

}  // namespace
}  // namespace entropydb
