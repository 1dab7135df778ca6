#include "oracles/gradient_solver.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "maxent/solver.h"
#include "oracles/dense_model.h"

namespace entropydb {
namespace {

using testutil::MakeRegistry;
using testutil::RandomDisjointStats;
using testutil::RandomTable;

TEST(GradientSolverTest, ConvergesOnSmallInstance) {
  auto table = RandomTable({5, 6}, 600, 121);
  auto reg = MakeRegistry(*table, RandomDisjointStats(*table, 0, 1, 5, 122));
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  GradientSolverOptions opts;
  opts.max_iterations = 2000;
  opts.tolerance = 1e-7;
  GradientMaxEntSolver solver(reg, *poly, opts);
  auto report = solver.Solve(&st);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged) << "error " << report->final_error;
}

TEST(GradientSolverTest, AgreesWithMirrorDescentSolution) {
  // Both solvers maximize the same strictly-concave-in-distribution dual:
  // the fitted distributions (not necessarily the overcomplete parameters)
  // must match.
  auto table = RandomTable({4, 4}, 400, 123);
  auto reg = MakeRegistry(*table, RandomDisjointStats(*table, 0, 1, 3, 124));
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());

  ModelState mirror = ModelState::InitialState(reg);
  SolverOptions mopts;
  mopts.max_iterations = 400;
  mopts.tolerance = 1e-10;
  ASSERT_TRUE(MaxEntSolver(reg, *poly, mopts).Solve(&mirror).ok());

  ModelState grad = ModelState::InitialState(reg);
  GradientSolverOptions gopts;
  gopts.max_iterations = 5000;
  gopts.tolerance = 1e-9;
  ASSERT_TRUE(GradientMaxEntSolver(reg, *poly, gopts).Solve(&grad).ok());

  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  for (uint64_t t = 0; t < dense->space().size(); ++t) {
    auto tuple = dense->space().TupleAt(t);
    EXPECT_NEAR(dense->TupleProbability(mirror, tuple),
                dense->TupleProbability(grad, tuple), 1e-5);
  }
}

TEST(GradientSolverTest, MirrorDescentNeedsFewerIterations) {
  // The reason the paper adopts coordinate mirror descent (Sec 2/3.3).
  auto table = RandomTable({6, 6}, 900, 125);
  auto reg = MakeRegistry(*table, RandomDisjointStats(*table, 0, 1, 8, 126));
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());

  ModelState mirror = ModelState::InitialState(reg);
  SolverOptions mopts;
  mopts.max_iterations = 500;
  mopts.tolerance = 1e-6;
  auto mreport = MaxEntSolver(reg, *poly, mopts).Solve(&mirror);
  ASSERT_TRUE(mreport.ok());
  ASSERT_TRUE(mreport->converged);

  ModelState grad = ModelState::InitialState(reg);
  GradientSolverOptions gopts;
  gopts.max_iterations = 500;
  gopts.tolerance = 1e-6;
  auto greport = GradientMaxEntSolver(reg, *poly, gopts).Solve(&grad);
  ASSERT_TRUE(greport.ok());

  if (greport->converged) {
    EXPECT_LE(mreport->iterations, greport->iterations);
  }  // else: gradient did not converge in the same budget — QED.
}

TEST(GradientSolverTest, PinsZeroTargets) {
  auto table = testutil::MakeTable(
      {3, 3}, {{1, 0}, {1, 1}, {2, 2}, {2, 0}});
  auto reg = MakeRegistry(*table, {});
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  GradientMaxEntSolver solver(reg, *poly);
  ASSERT_TRUE(solver.Solve(&st).ok());
  EXPECT_DOUBLE_EQ(st.alpha[0][0], 0.0);  // value 0 of attr 0 never occurs
}

TEST(GradientSolverTest, OneDOnlyImmediate) {
  auto table = RandomTable({4, 5}, 300, 127);
  auto reg = MakeRegistry(*table, {});
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  GradientMaxEntSolver solver(reg, *poly);
  auto report = solver.Solve(&st);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->converged);
  EXPECT_LE(report->iterations, 2u);
}

}  // namespace
}  // namespace entropydb
