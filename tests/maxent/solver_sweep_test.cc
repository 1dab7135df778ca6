// Parameterized end-to-end property sweep: for every polynomial shape the
// compressed representation supports, the solved model must reproduce all
// fitted statistics and agree with dense enumeration on arbitrary queries.

#include <gtest/gtest.h>

#include "../test_util.h"
#include "maxent/answerer.h"
#include "maxent/solver.h"
#include "oracles/dense_model.h"

namespace entropydb {
namespace {

using testutil::MakeRegistry;
using testutil::RandomDisjointStats;
using testutil::RandomTable;

struct SolverSweepParam {
  std::vector<uint32_t> domains;
  std::vector<std::pair<AttrId, AttrId>> pairs;
  size_t stats_per_pair;
  uint64_t seed;
};

class SolverSweepTest : public ::testing::TestWithParam<SolverSweepParam> {
 protected:
  void Solve() {
    const auto& p = GetParam();
    table_ = RandomTable(p.domains, 500, p.seed);
    std::vector<MultiDimStatistic> stats;
    for (size_t i = 0; i < p.pairs.size(); ++i) {
      auto s = RandomDisjointStats(*table_, p.pairs[i].first,
                                   p.pairs[i].second, p.stats_per_pair,
                                   p.seed + i + 1);
      stats.insert(stats.end(), s.begin(), s.end());
    }
    reg_ = std::make_unique<VariableRegistry>(MakeRegistry(*table_, stats));
    auto poly = CompressedPolynomial::Build(*reg_);
    ASSERT_TRUE(poly.ok());
    poly_ = std::make_unique<CompressedPolynomial>(std::move(*poly));
    state_ = ModelState::InitialState(*reg_);
    SolverOptions opts;
    opts.max_iterations = 400;
    opts.tolerance = 1e-9;
    MaxEntSolver solver(*reg_, *poly_, opts);
    auto report = solver.Solve(&state_);
    ASSERT_TRUE(report.ok());
    converged_ = report->converged;
    final_error_ = report->final_error;
  }

  std::shared_ptr<Table> table_;
  std::unique_ptr<VariableRegistry> reg_;
  std::unique_ptr<CompressedPolynomial> poly_;
  ModelState state_;
  bool converged_ = false;
  double final_error_ = 0.0;
};

TEST_P(SolverSweepTest, ConvergesAndMatchesEveryStatistic) {
  Solve();
  EXPECT_TRUE(converged_) << "final error " << final_error_;
  // Independent verification through the compressed machinery itself.
  MaxEntSolver checker(*reg_, *poly_);
  EXPECT_LT(checker.MaxStatisticError(state_), 1e-7);
}

TEST_P(SolverSweepTest, QueriesAgreeWithDenseOracle) {
  Solve();
  auto dense = DenseMaxEntModel::Create(*reg_);
  ASSERT_TRUE(dense.ok());
  QueryAnswerer answerer(*reg_, *poly_, state_);
  Rng rng(GetParam().seed + 999);
  for (int trial = 0; trial < 15; ++trial) {
    CountingQuery q(reg_->num_attributes());
    for (AttrId a = 0; a < reg_->num_attributes(); ++a) {
      if (rng.NextBernoulli(0.4)) continue;
      Code lo = static_cast<Code>(rng.Uniform(reg_->domain_size(a)));
      Code hi = lo + static_cast<Code>(rng.Uniform(reg_->domain_size(a) - lo));
      q.Where(a, AttrPredicate::Range(lo, hi));
    }
    auto est = answerer.Answer(q);
    ASSERT_TRUE(est.ok());
    EXPECT_NEAR(est->expectation, dense->CountEstimate(state_, q), 1e-5);
  }
}

TEST_P(SolverSweepTest, ModelMassEqualsCardinality) {
  Solve();
  QueryAnswerer answerer(*reg_, *poly_, state_);
  auto whole = answerer.Answer(CountingQuery(reg_->num_attributes()));
  ASSERT_TRUE(whole.ok());
  EXPECT_NEAR(whole->expectation, reg_->n(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SolverSweepTest,
    ::testing::Values(
        SolverSweepParam{{4, 5}, {{0, 1}}, 4, 211},
        SolverSweepParam{{4, 5, 3}, {{0, 1}, {1, 2}}, 3, 212},
        SolverSweepParam{{3, 4, 3, 4}, {{0, 1}, {2, 3}}, 3, 213},
        SolverSweepParam{{3, 3, 4, 4}, {{0, 3}, {1, 3}, {2, 3}}, 3, 214},
        SolverSweepParam{{4, 4, 5}, {{0, 1}}, 6, 215},
        SolverSweepParam{{6, 6}, {{0, 1}}, 10, 216},
        SolverSweepParam{{3, 3, 3, 3}, {{0, 1}, {1, 2}, {2, 3}}, 2, 217},
        SolverSweepParam{{5, 4, 3}, {}, 0, 218}));

}  // namespace
}  // namespace entropydb
