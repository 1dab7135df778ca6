#include "maxent/polynomial.h"

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/rng.h"
#include "oracles/closure_oracle.h"
#include "oracles/dense_model.h"

namespace entropydb {
namespace {

using testutil::MakeRegistry;
using testutil::RandomDisjointStats;
using testutil::RandomTable;

/// Random positive model state (not solved; evaluation must agree anyway).
ModelState RandomState(const VariableRegistry& reg, uint64_t seed) {
  Rng rng(seed);
  ModelState st = ModelState::InitialState(reg);
  for (auto& fam : st.alpha) {
    for (auto& a : fam) a = 0.05 + rng.NextDouble();
  }
  for (auto& d : st.delta) d = 0.1 + 2.0 * rng.NextDouble();
  return st;
}

CountingQuery RandomMask(const VariableRegistry& reg, uint64_t seed) {
  Rng rng(seed);
  CountingQuery mask(reg.num_attributes());
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    switch (rng.Uniform(3)) {
      case 0:
        break;  // ANY
      case 1: {  // range
        uint32_t n = reg.domain_size(a);
        Code lo = static_cast<Code>(rng.Uniform(n));
        Code hi = lo + static_cast<Code>(rng.Uniform(n - lo));
        std::vector<Code> allow;
        for (Code v = lo; v <= hi; ++v) allow.push_back(v);
        mask.Where(a, AttrPredicate::InSet(std::move(allow)));
        break;
      }
      default: {  // random subset, possibly empty
        uint32_t n = reg.domain_size(a);
        std::vector<Code> allow;
        for (Code v = 0; v < n; ++v) {
          if (rng.NextBernoulli(0.6)) allow.push_back(v);
        }
        mask.Where(a, AttrPredicate::InSet(std::move(allow)));
      }
    }
  }
  return mask;
}

/// The solver's single-sweep AllDerivatives against enumeration, for every
/// alpha and delta variable.
void ExpectAllDerivativesMatchDense(const CompressedPolynomial& poly,
                                    const DenseMaxEntModel& dense,
                                    const VariableRegistry& reg,
                                    const ModelState& st) {
  const auto all = poly.AllDerivatives(st, poly.EvaluateUnmasked(st));
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    for (Code v = 0; v < reg.domain_size(a); ++v) {
      double want = dense.AlphaDerivative(st, a, v);
      EXPECT_NEAR(all.alpha[a][v], want, 1e-10 * std::max(1.0, std::abs(want)))
          << "AllDerivatives attr " << a << " value " << v;
    }
  }
  for (uint32_t j = 0; j < reg.num_multi_dim(); ++j) {
    double want = dense.DeltaDerivative(st, j);
    EXPECT_NEAR(all.delta[j], want, 1e-10 * std::max(1.0, std::abs(want)))
        << "AllDerivatives stat " << j;
  }
}

TEST(PolynomialTest, OneDOnlyFactorizes) {
  auto table = RandomTable({4, 5, 3}, 200, 1);
  auto reg = MakeRegistry(*table, {});
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->NumComponents(), 0u);
  EXPECT_EQ(poly->NumGroups(), 0u);
  EXPECT_DOUBLE_EQ(poly->UncompressedTermCount(), 60.0);

  // P = (sum alpha0)(sum alpha1)(sum alpha2).
  ModelState st = RandomState(reg, 2);
  auto ctx = poly->EvaluateUnmasked(st);
  double expect = 1.0;
  for (AttrId a = 0; a < 3; ++a) {
    double t = 0.0;
    for (double v : st.alpha[a]) t += v;
    expect *= t;
  }
  EXPECT_NEAR(ctx.value, expect, 1e-12 * std::abs(expect));
}

TEST(PolynomialTest, PaperExample33) {
  // Example 3.3: R(A,B,C), two values per domain, 2-D statistics on AB and
  // BC. We verify the compressed polynomial against dense enumeration.
  auto table = testutil::MakeTable(
      {2, 2, 2},
      {{0, 0, 0}, {0, 1, 1}, {0, 1, 1}, {1, 0, 0}, {1, 1, 0}});
  std::vector<MultiDimStatistic> stats = {
      Make2DStatistic(0, {0, 0}, 1, {0, 0}, 1.0),   // A=a1 ^ B=b1
      Make2DStatistic(0, {1, 1}, 1, {1, 1}, 1.0),   // A=a2 ^ B=b2
      Make2DStatistic(1, {0, 0}, 2, {0, 0}, 2.0),   // B=b1 ^ C=c1
      Make2DStatistic(1, {1, 1}, 2, {0, 0}, 1.0),   // B=b2 ^ C=c1
  };
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  // One component {A, B, C}; compatible sets: 4 singletons plus
  // {AB_11, BC_11}, {AB_11, BC_21}? (B ranges must overlap): AB_11 has B=b1,
  // so it pairs only with BC on b1; AB_22 pairs only with BC on b2.
  EXPECT_EQ(poly->NumComponents(), 1u);
  EXPECT_EQ(poly->NumGroups(), 6u);

  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  ModelState st = RandomState(reg, 3);
  EXPECT_NEAR(poly->EvaluateUnmasked(st).value, dense->EvaluateUnmasked(st),
              1e-12);
}

struct SweepParam {
  std::vector<uint32_t> domains;
  std::vector<std::pair<AttrId, AttrId>> pairs;
  size_t stats_per_pair;
  uint64_t seed;
};

class PolynomialSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PolynomialSweepTest, CompressedMatchesDense) {
  const auto& p = GetParam();
  auto table = RandomTable(p.domains, 400, p.seed);
  std::vector<MultiDimStatistic> stats;
  for (size_t i = 0; i < p.pairs.size(); ++i) {
    auto s = RandomDisjointStats(*table, p.pairs[i].first, p.pairs[i].second,
                                 p.stats_per_pair, p.seed + i + 1);
    stats.insert(stats.end(), s.begin(), s.end());
  }
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());

  const ClosureOracle oracle(*poly);
  ModelState st = RandomState(reg, p.seed + 100);

  // Unmasked evaluation.
  auto ctx = poly->EvaluateUnmasked(st);
  double dense_p = dense->EvaluateUnmasked(st);
  ASSERT_GT(dense_p, 0.0);
  EXPECT_NEAR(ctx.value / dense_p, 1.0, 1e-10);

  // Masked evaluations: the reference and the query path's cached walk.
  EvalWorkspace ws;
  for (int trial = 0; trial < 6; ++trial) {
    CountingQuery mask = RandomMask(reg, p.seed + 200 + trial);
    double compressed = oracle.Evaluate(st, mask).value;
    double dense_masked = dense->Evaluate(st, mask);
    EXPECT_NEAR(compressed, dense_masked,
                1e-10 * std::max(1.0, std::abs(dense_masked)));
    EXPECT_NEAR(poly->MaskedEvaluate(st, mask, &ws).value, dense_masked,
                1e-10 * std::max(1.0, std::abs(dense_masked)))
        << "trial " << trial;
  }

  // Alpha derivatives, every attribute and value.
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    auto got = oracle.AlphaDerivatives(st, ctx, a);
    for (Code v = 0; v < reg.domain_size(a); ++v) {
      double want = dense->AlphaDerivative(st, a, v);
      EXPECT_NEAR(got[v], want, 1e-10 * std::max(1.0, std::abs(want)))
          << "attr " << a << " value " << v;
    }
  }

  // Delta derivatives.
  for (uint32_t j = 0; j < reg.num_multi_dim(); ++j) {
    double want = dense->DeltaDerivative(st, j);
    EXPECT_NEAR(oracle.DeltaDerivative(st, ctx, j), want,
                1e-10 * std::max(1.0, std::abs(want)))
        << "stat " << j;
  }

  ExpectAllDerivativesMatchDense(*poly, *dense, reg, st);
}

TEST_P(PolynomialSweepTest, OvercompletenessIdentity) {
  // Eq 7 / Eq 8 consequence: for every attribute family,
  // sum_v alpha_v * dP/dalpha_v == P.
  const auto& p = GetParam();
  auto table = RandomTable(p.domains, 300, p.seed);
  std::vector<MultiDimStatistic> stats;
  for (size_t i = 0; i < p.pairs.size(); ++i) {
    auto s = RandomDisjointStats(*table, p.pairs[i].first, p.pairs[i].second,
                                 p.stats_per_pair, p.seed + i + 1);
    stats.insert(stats.end(), s.begin(), s.end());
  }
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  const ClosureOracle oracle(*poly);
  ModelState st = RandomState(reg, p.seed + 300);
  auto ctx = poly->EvaluateUnmasked(st);
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    auto deriv = oracle.AlphaDerivatives(st, ctx, a);
    double sum = 0.0;
    for (Code v = 0; v < reg.domain_size(a); ++v) {
      sum += st.alpha[a][v] * deriv[v];
    }
    EXPECT_NEAR(sum / ctx.value, 1.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PolynomialSweepTest,
    ::testing::Values(
        // Single pair, one component.
        SweepParam{{4, 5}, {{0, 1}}, 4, 11},
        // Chain: two pairs sharing attribute 1 (the paper's Eq 13 shape).
        SweepParam{{4, 5, 3}, {{0, 1}, {1, 2}}, 3, 12},
        // Disjoint pairs: two separate components.
        SweepParam{{3, 4, 3, 4}, {{0, 1}, {2, 3}}, 3, 13},
        // Three pairs sharing a hub attribute (the Ent1&2&3 shape).
        SweepParam{{3, 3, 4, 4}, {{0, 3}, {1, 3}, {2, 3}}, 3, 14},
        // Free attribute alongside a component.
        SweepParam{{4, 4, 5}, {{0, 1}}, 5, 15},
        // Denser statistics.
        SweepParam{{6, 6}, {{0, 1}}, 12, 16},
        // Four attributes fully chained.
        SweepParam{{3, 3, 3, 3}, {{0, 1}, {1, 2}, {2, 3}}, 2, 17}));

TEST(PolynomialTest, ThreeDStatisticSupported) {
  // Sec 4.1's single 3-D statistic example: A=3 ^ B=4 ^ C=5.
  auto table = RandomTable({6, 6, 6}, 200, 21);
  MultiDimStatistic s3;
  s3.attrs = {0, 1, 2};
  s3.ranges = {{3, 3}, {4, 4}, {5, 5}};
  s3.target = 2.0;
  auto reg = MakeRegistry(*table, {s3});
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->NumGroups(), 1u);
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  ModelState st = RandomState(reg, 22);
  EXPECT_NEAR(poly->EvaluateUnmasked(st).value, dense->EvaluateUnmasked(st),
              1e-10);
}

TEST(PolynomialTest, Mixed2DAnd3DStatisticsMatchDense) {
  // 2-D statistics on (0,1) combined with a 3-D statistic spanning
  // (0,1,2): the closure must mix arities correctly.
  auto table = RandomTable({4, 4, 4}, 300, 61);
  auto stats = RandomDisjointStats(*table, 0, 1, 3, 62);
  MultiDimStatistic s3;
  s3.attrs = {0, 1, 2};
  s3.ranges = {{0, 2}, {1, 3}, {0, 1}};
  ExactEvaluator eval(*table);
  CountingQuery cq(3);
  cq.Where(0, AttrPredicate::Range(0, 2));
  cq.Where(1, AttrPredicate::Range(1, 3));
  cq.Where(2, AttrPredicate::Range(0, 1));
  s3.target = static_cast<double>(eval.Count(cq));
  stats.push_back(s3);

  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  auto dense = DenseMaxEntModel::Create(reg);
  ASSERT_TRUE(dense.ok());
  const ClosureOracle oracle(*poly);
  ModelState st = RandomState(reg, 63);
  auto ctx = poly->EvaluateUnmasked(st);
  EXPECT_NEAR(ctx.value, dense->EvaluateUnmasked(st),
              1e-10 * std::abs(dense->EvaluateUnmasked(st)));
  for (uint32_t j = 0; j < reg.num_multi_dim(); ++j) {
    double want = dense->DeltaDerivative(st, j);
    EXPECT_NEAR(oracle.DeltaDerivative(st, ctx, j), want,
                1e-10 * std::max(1.0, std::abs(want)));
  }
  for (AttrId a = 0; a < 3; ++a) {
    auto got = oracle.AlphaDerivatives(st, ctx, a);
    for (Code v = 0; v < 4; ++v) {
      double want = dense->AlphaDerivative(st, a, v);
      EXPECT_NEAR(got[v], want, 1e-10 * std::max(1.0, std::abs(want)));
    }
  }
  ExpectAllDerivativesMatchDense(*poly, *dense, reg, st);

  // The query path's cached masked walk over the mixed-arity groups.
  EvalWorkspace ws;
  for (int trial = 0; trial < 6; ++trial) {
    CountingQuery mask = RandomMask(reg, 64 + trial);
    const double want = dense->Evaluate(st, mask);
    EXPECT_NEAR(poly->MaskedEvaluate(st, mask, &ws).value, want,
                1e-10 * std::max(1.0, std::abs(want)))
        << "trial " << trial;
  }
}

TEST(PolynomialTest, DisjointPairsNeverCrossMultiply) {
  // Components keep statistics on disjoint attribute sets factorized: the
  // group count is the sum, not the product, of per-pair group counts.
  auto table = RandomTable({4, 4, 4, 4}, 300, 23);
  auto s01 = RandomDisjointStats(*table, 0, 1, 5, 24);
  auto s23 = RandomDisjointStats(*table, 2, 3, 5, 25);
  std::vector<MultiDimStatistic> stats(s01);
  stats.insert(stats.end(), s23.begin(), s23.end());
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  EXPECT_EQ(poly->NumComponents(), 2u);
  EXPECT_EQ(poly->NumGroups(), s01.size() + s23.size());
}

TEST(PolynomialTest, GroupCapEnforced) {
  auto table = RandomTable({8, 8}, 300, 26);
  auto stats = RandomDisjointStats(*table, 0, 1, 16, 27);
  auto reg = MakeRegistry(*table, stats);
  PolynomialOptions opts;
  opts.max_groups = 4;
  EXPECT_TRUE(CompressedPolynomial::Build(reg, opts)
                  .status()
                  .IsResourceExhausted());
}

TEST(PolynomialTest, MaskZeroingKillsExactlyExcludedMonomials) {
  // Zeroing every value of one attribute gives P = 0.
  auto table = RandomTable({3, 4}, 100, 28);
  auto reg = MakeRegistry(*table, RandomDisjointStats(*table, 0, 1, 3, 29));
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  ModelState st = RandomState(reg, 30);
  CountingQuery mask(2);
  mask.Where(0, AttrPredicate::InSet({}));
  EXPECT_DOUBLE_EQ(ClosureOracle(*poly).Evaluate(st, mask).value, 0.0);
}

TEST(PolynomialTest, CompressedSizeIsFarBelowUncompressed) {
  auto table = RandomTable({30, 40, 20}, 2000, 31);
  auto reg = MakeRegistry(*table, RandomDisjointStats(*table, 0, 1, 20, 32));
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  EXPECT_DOUBLE_EQ(poly->UncompressedTermCount(), 24000.0);
  EXPECT_LT(static_cast<double>(poly->CompressedSize()),
            poly->UncompressedTermCount() / 10.0);
  EXPECT_GT(poly->MemoryBytes(), 0u);
  EXPECT_GE(poly->MaxSetSize(), 1u);
}

}  // namespace
}  // namespace entropydb
