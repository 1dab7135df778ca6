#include "oracles/dense_model.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace entropydb {
namespace {

TEST(DenseModelTest, RefusesHugeTupleSpaces) {
  auto reg = VariableRegistry::Create({1 << 12, 1 << 12},
                                      {std::vector<double>(1 << 12, 1.0),
                                       std::vector<double>(1 << 12, 1.0)},
                                      {}, 10);
  ASSERT_TRUE(reg.ok());
  EXPECT_TRUE(DenseMaxEntModel::Create(*reg, 1 << 20)
                  .status()
                  .IsResourceExhausted());
}

TEST(DenseModelTest, TupleProbabilitiesSumToOne) {
  auto table = testutil::RandomTable({3, 4}, 150, 111);
  auto reg = testutil::MakeRegistry(
      *table, testutil::RandomDisjointStats(*table, 0, 1, 3, 112));
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  ModelState st = ModelState::InitialState(reg);
  double total = 0.0;
  for (uint64_t t = 0; t < dense->space().size(); ++t) {
    total += dense->TupleProbability(st, dense->space().TupleAt(t));
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(DenseModelTest, EvaluateIsSumOfWeights) {
  // Two attributes of size 2, no stats: P = (a0+a1)(b0+b1).
  auto table = testutil::MakeTable({2, 2}, {{0, 0}, {1, 1}});
  auto reg = testutil::MakeRegistry(*table, {});
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  ModelState st;
  st.alpha = {{2.0, 3.0}, {5.0, 7.0}};
  EXPECT_DOUBLE_EQ(dense->EvaluateUnmasked(st), 5.0 * 12.0);
}

TEST(DenseModelTest, DeltaMultipliesOnlyItsRectangle) {
  auto table = testutil::MakeTable({2, 2}, {{0, 0}, {1, 1}});
  auto stat = Make2DStatistic(0, {0, 0}, 1, {0, 0}, 1.0);
  auto reg = testutil::MakeRegistry(*table, {stat});
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  ModelState st;
  st.alpha = {{1.0, 1.0}, {1.0, 1.0}};
  st.delta = {10.0};
  // P = 10*1 + 1 + 1 + 1 = 13.
  EXPECT_DOUBLE_EQ(dense->EvaluateUnmasked(st), 13.0);
  EXPECT_DOUBLE_EQ(dense->DeltaDerivative(st, 0), 1.0);
  EXPECT_DOUBLE_EQ(dense->AlphaDerivative(st, 0, 0), 10.0 + 1.0);
  EXPECT_DOUBLE_EQ(dense->AlphaDerivative(st, 0, 1), 2.0);
}

TEST(DenseModelTest, NaiveSolverConvergesOnSmallInstance) {
  auto table = testutil::RandomTable({3, 3}, 200, 113);
  auto reg = testutil::MakeRegistry(
      *table, testutil::RandomDisjointStats(*table, 0, 1, 2, 114));
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  ModelState st = ModelState::InitialState(reg);
  auto report = dense->SolveNaive(&st, 400, 1e-9);
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.final_error, 1e-9);
}

TEST(DenseModelTest, CountEstimateOnExamplePaper) {
  // Paper Sec 2 intro example: 500k flights over 50x50 states, uniform ->
  // CA->NY estimate = 500000 / 2500 = 200.
  std::vector<uint32_t> sizes{50, 50};
  std::vector<std::vector<double>> targets(
      2, std::vector<double>(50, 10000.0));
  auto reg = VariableRegistry::Create(sizes, targets, {}, 500000.0);
  ASSERT_TRUE(reg.ok());
  auto dense = DenseMaxEntModel::Create(*reg);
  ASSERT_TRUE(dense.ok());
  ModelState st = ModelState::InitialState(*reg);
  CountingQuery q(2);
  q.Where(0, AttrPredicate::Point(0)).Where(1, AttrPredicate::Point(1));
  EXPECT_NEAR(dense->CountEstimate(st, q), 200.0, 1e-6);
}

}  // namespace
}  // namespace entropydb
