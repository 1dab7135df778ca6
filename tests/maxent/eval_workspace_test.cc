#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "common/rng.h"
#include "maxent/polynomial.h"
#include "oracles/closure_oracle.h"

namespace entropydb {
namespace {

using testutil::MakeRegistry;
using testutil::RandomDisjointStats;
using testutil::RandomTable;

constexpr double kRelTol = 1e-12;

void ExpectClose(double got, double want, const char* what) {
  EXPECT_NEAR(got, want, kRelTol * std::max(1.0, std::abs(want))) << what;
}

ModelState RandomState(const VariableRegistry& reg, uint64_t seed) {
  Rng rng(seed);
  ModelState st = ModelState::InitialState(reg);
  for (auto& fam : st.alpha) {
    for (auto& a : fam) a = 0.05 + rng.NextDouble();
  }
  for (auto& d : st.delta) d = 0.1 + 2.0 * rng.NextDouble();
  return st;
}

QueryMask RandomMask(const VariableRegistry& reg, uint64_t seed,
                     double p_constrained) {
  Rng rng(seed);
  QueryMask mask(reg.num_attributes());
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    if (!rng.NextBernoulli(p_constrained)) continue;
    uint32_t n = reg.domain_size(a);
    std::vector<uint8_t> allow(n, 0);
    const uint64_t shape = rng.Uniform(3);
    if (shape == 0) {
      Code lo = static_cast<Code>(rng.Uniform(n));
      Code hi = lo + static_cast<Code>(rng.Uniform(n - lo));
      for (Code v = lo; v <= hi; ++v) allow[v] = 1;
    } else if (shape == 1) {
      allow[rng.Uniform(n)] = 1;  // a pin: the stab-list walks
    } else {
      for (Code v = 0; v < n; ++v) allow[v] = rng.NextBernoulli(0.6);
    }
    mask.Restrict(a, std::move(allow));
  }
  return mask;
}

struct Fixture {
  VariableRegistry reg;
  CompressedPolynomial poly;
  ModelState state;
};

/// A chain-shaped polynomial with a free attribute — exercises components,
/// multi-stat groups, and the free-attribute paths at once.
Fixture MakeSetup(uint64_t seed) {
  auto table = RandomTable({6, 5, 4, 7}, 400, seed);
  std::vector<MultiDimStatistic> stats;
  auto s01 = RandomDisjointStats(*table, 0, 1, 4, seed + 1);
  auto s12 = RandomDisjointStats(*table, 1, 2, 3, seed + 2);
  stats.insert(stats.end(), s01.begin(), s01.end());
  stats.insert(stats.end(), s12.begin(), s12.end());
  auto reg = MakeRegistry(*table, stats);
  auto poly = CompressedPolynomial::Build(reg);
  EXPECT_TRUE(poly.ok());
  ModelState st = RandomState(reg, seed + 3);
  return Fixture{std::move(reg), std::move(*poly), std::move(st)};
}

/// One attribute pair with disjoint statistics, so each group is one
/// statistic; code 5 of A0 lies in no statistic, and A2 is free.
Fixture MakePairSetup(uint64_t seed) {
  auto table = RandomTable({6, 5, 4}, 400, seed);
  ExactEvaluator exact(*table);
  auto stat = [&](Interval i0, Interval i1) {
    CountingQuery q(table->num_attributes());
    q.Where(0, AttrPredicate::Range(i0.lo, i0.hi));
    q.Where(1, AttrPredicate::Range(i1.lo, i1.hi));
    return Make2DStatistic(0, i0, 1, i1, static_cast<double>(exact.Count(q)));
  };
  auto reg = MakeRegistry(*table, {stat({0, 1}, {0, 2}), stat({2, 3}, {1, 4}),
                                   stat({0, 1}, {3, 4}), stat({4, 4}, {0, 0})});
  auto poly = CompressedPolynomial::Build(reg);
  EXPECT_TRUE(poly.ok());
  ModelState st = RandomState(reg, seed + 1);
  return Fixture{std::move(reg), std::move(*poly), std::move(st)};
}

/// Pins each attribute, in turn, to every code of its domain over a random
/// background mask (which may pin others too) and checks the pinned walks
/// against the reference paths: the masked value, every other attribute's
/// group-by cofactors, and its point-override value at each code. A range
/// on the same attribute follows each pin, so a stale pin would surface.
void ExpectPinnedWalksMatchReference(const Fixture& s, uint64_t seed) {
  const size_t m = s.reg.num_attributes();
  const ClosureOracle oracle(s.poly);
  EvalWorkspace ws;
  for (AttrId a = 0; a < m; ++a) {
    const uint32_t na = s.reg.domain_size(a);
    for (Code v = 0; v < na; ++v) {
      QueryMask mask = RandomMask(s.reg, seed + 64 * a + v, 0.4);
      std::vector<uint8_t> one(na, 0);
      one[v] = 1;
      mask.Restrict(a, std::move(one));
      ExpectClose(s.poly.MaskedEvaluate(s.state, mask, &ws).value,
                  oracle.Evaluate(s.state, mask).value, "pinned value");
      for (AttrId b = 0; b < m; ++b) {
        if (b == a) continue;
        const uint32_t nb = s.reg.domain_size(b);
        QueryMask by = mask;
        by.Restrict(b, std::vector<uint8_t>(nb, 1));
        const auto eval = s.poly.MaskedEvaluate(s.state, by, &ws);
        const auto got = s.poly.MaskedAlphaDerivatives(s.state, eval, b, &ws);
        const auto want =
            oracle.AlphaDerivatives(s.state, oracle.Evaluate(s.state, by), b);
        for (Code w = 0; w < nb; ++w) {
          ExpectClose(got[w], want[w], "pinned group-by cofactor");
          QueryMask point = by;
          std::vector<uint8_t> key(nb, 0);
          key[w] = 1;
          point.Restrict(b, std::move(key));
          ExpectClose(s.poly.PointOverrideValue(s.state, eval, {b}, {w}, &ws),
                      oracle.Evaluate(s.state, point).value,
                      "pinned point override");
        }
      }
      std::vector<uint8_t> range(na, 0);
      range[v] = 1;
      range[v == 0 ? 1 : v - 1] = 1;
      mask.Restrict(a, std::move(range));
      ExpectClose(s.poly.MaskedEvaluate(s.state, mask, &ws).value,
                  oracle.Evaluate(s.state, mask).value, "range after a pin");
    }
  }
}

TEST(EvalWorkspaceTest, PinnedWalksMatchReferenceOnEveryCode) {
  ExpectPinnedWalksMatchReference(MakeSetup(117), 3000);
  ExpectPinnedWalksMatchReference(MakePairSetup(118), 4000);
}

TEST(EvalWorkspaceTest, MaskedEvaluateMatchesFreshAcrossRandomMasks) {
  Fixture s = MakeSetup(101);
  const ClosureOracle oracle(s.poly);
  EvalWorkspace ws;
  for (int trial = 0; trial < 40; ++trial) {
    QueryMask mask = RandomMask(s.reg, 500 + trial, 0.5);
    const double fresh = oracle.Evaluate(s.state, mask).value;
    const double cached = s.poly.MaskedEvaluate(s.state, mask, &ws).value;
    ExpectClose(cached, fresh, "masked value");
  }
}

TEST(EvalWorkspaceTest, WorkspaceReuseDoesNotLeakAcrossMasks) {
  // Alternate between heavily and lightly constrained masks; a stale
  // masked prefix or effective total from a previous query must not
  // surface.
  Fixture s = MakeSetup(102);
  const ClosureOracle oracle(s.poly);
  EvalWorkspace ws;
  for (int trial = 0; trial < 30; ++trial) {
    const double p = (trial % 2 == 0) ? 0.9 : 0.15;
    QueryMask mask = RandomMask(s.reg, 900 + trial, p);
    ExpectClose(s.poly.MaskedEvaluate(s.state, mask, &ws).value,
                oracle.Evaluate(s.state, mask).value, "alternating masks");
  }
  // The all-ANY mask must return the cached unmasked value exactly.
  QueryMask any(s.reg.num_attributes());
  EXPECT_DOUBLE_EQ(s.poly.MaskedEvaluate(s.state, any, &ws).value,
                   s.poly.EvaluateUnmasked(s.state).value);
}

TEST(EvalWorkspaceTest, AllDerivativesMatchPerVariablePaths) {
  Fixture s = MakeSetup(103);
  const ClosureOracle oracle(s.poly);
  auto ctx = s.poly.EvaluateUnmasked(s.state);
  const auto all = s.poly.AllDerivatives(s.state, ctx);
  for (AttrId a = 0; a < s.reg.num_attributes(); ++a) {
    const auto want = oracle.AlphaDerivatives(s.state, ctx, a);
    ASSERT_EQ(all.alpha[a].size(), want.size());
    for (Code v = 0; v < want.size(); ++v) {
      EXPECT_NEAR(all.alpha[a][v], want[v],
                  kRelTol * std::max(1.0, std::abs(want[v])))
          << "attr " << a << " value " << v;
    }
  }
  for (uint32_t j = 0; j < s.reg.num_multi_dim(); ++j) {
    ExpectClose(all.delta[j], oracle.DeltaDerivative(s.state, ctx, j),
                "delta derivative");
    ExpectClose(all.delta_local[j],
                oracle.DeltaDerivativeLocal(s.state, ctx, j),
                "local delta derivative");
  }
}

TEST(EvalWorkspaceTest, AllDerivativesMatchNaiveSkipRecomputation) {
  // The sweep's cofactors against the definitionally-naive path: zero one
  // variable, re-evaluate, divide the difference by the variable's value.
  Fixture s = MakeSetup(104);
  const ClosureOracle oracle(s.poly);
  auto ctx = s.poly.EvaluateUnmasked(s.state);
  const auto all = s.poly.AllDerivatives(s.state, ctx);
  const double naive_tol = 1e-9;  // subtraction loses a few digits
  for (AttrId a = 0; a < s.reg.num_attributes(); ++a) {
    for (Code v = 0; v < s.reg.domain_size(a); ++v) {
      const double alpha = s.state.alpha[a][v];
      ASSERT_GT(alpha, 0.0);
      QueryMask mask(s.reg.num_attributes());
      std::vector<uint8_t> allow(s.reg.domain_size(a), 1);
      allow[v] = 0;
      mask.Restrict(a, std::move(allow));
      const double without = oracle.Evaluate(s.state, mask).value;
      const double naive = (ctx.value - without) / alpha;
      EXPECT_NEAR(all.alpha[a][v], naive,
                  naive_tol * std::max(1.0, std::abs(naive)))
          << "attr " << a << " value " << v;
    }
  }
}

TEST(EvalWorkspaceTest, MaskedAlphaDerivativesMatchContextPath) {
  Fixture s = MakeSetup(106);
  const ClosureOracle oracle(s.poly);
  EvalWorkspace ws;
  for (int trial = 0; trial < 10; ++trial) {
    for (AttrId a = 0; a < s.reg.num_attributes(); ++a) {
      QueryMask mask = RandomMask(s.reg, 1500 + trial, 0.5);
      // Group-by convention: the split attribute itself is unconstrained.
      std::vector<uint8_t> all_pass(s.reg.domain_size(a), 1);
      mask.Restrict(a, std::move(all_pass));
      const auto eval = s.poly.MaskedEvaluate(s.state, mask, &ws);
      const auto got = s.poly.MaskedAlphaDerivatives(s.state, eval, a, &ws);
      auto ctx = oracle.Evaluate(s.state, mask);
      const auto want = oracle.AlphaDerivatives(s.state, ctx, a);
      for (Code v = 0; v < s.reg.domain_size(a); ++v) {
        EXPECT_NEAR(got[v], want[v],
                    kRelTol * std::max(1.0, std::abs(want[v])))
            << "trial " << trial << " attr " << a << " value " << v;
      }
    }
  }
}

TEST(EvalWorkspaceTest, PointOverrideValueMatchesPointMaskedEvaluation) {
  Fixture s = MakeSetup(107);
  const ClosureOracle oracle(s.poly);
  EvalWorkspace ws;
  Rng rng(7);
  // Pin pairs spanning the same component, different components, and a
  // free attribute.
  const std::vector<std::vector<AttrId>> key_shapes = {
      {0, 1}, {0, 2}, {1, 3}, {3}, {0, 1, 2}};
  for (const auto& attrs : key_shapes) {
    QueryMask mask = RandomMask(s.reg, 1700 + attrs.size(), 0.4);
    for (AttrId a : attrs) {
      std::vector<uint8_t> all_pass(s.reg.domain_size(a), 1);
      mask.Restrict(a, std::move(all_pass));
    }
    const auto eval = s.poly.MaskedEvaluate(s.state, mask, &ws);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<Code> codes;
      for (AttrId a : attrs) {
        codes.push_back(static_cast<Code>(rng.Uniform(s.reg.domain_size(a))));
      }
      const double got =
          s.poly.PointOverrideValue(s.state, eval, attrs, codes, &ws);
      QueryMask point_mask = mask;
      for (size_t i = 0; i < attrs.size(); ++i) {
        std::vector<uint8_t> allow(s.reg.domain_size(attrs[i]), 0);
        allow[codes[i]] = 1;
        point_mask.Restrict(attrs[i], std::move(allow));
      }
      const double want = oracle.Evaluate(s.state, point_mask).value;
      ExpectClose(got, want, "point-override value");
    }
  }
}

TEST(EvalWorkspaceTest, CachedDeltaLocalMatchesUncached) {
  Fixture s = MakeSetup(108);
  const ClosureOracle oracle(s.poly);
  auto ctx = s.poly.EvaluateUnmasked(s.state);
  const auto rs = oracle.GroupRangeSumProducts(ctx);
  for (uint32_t j = 0; j < s.reg.num_multi_dim(); ++j) {
    const auto& rs_c = rs[s.poly.ComponentOfDelta(j)];
    ExpectClose(s.poly.DeltaDerivativeLocalCached(s.state, rs_c, j),
                oracle.DeltaDerivativeLocal(s.state, ctx, j),
                "cached local delta derivative");
  }
}

TEST(EvalWorkspaceTest, ComponentSweepCofactorsMatchPerAttributePath) {
  // Drive the solver's prefix/suffix sweep machinery through a full alpha
  // phase (without updates) and check each family's cofactors and the
  // finished interval products against the reference paths.
  Fixture s = MakeSetup(112);
  const ClosureOracle oracle(s.poly);
  auto ctx = s.poly.EvaluateUnmasked(s.state);
  std::vector<ComponentSweep> sweeps;
  for (size_t c = 0; c < s.poly.NumComponents(); ++c) {
    sweeps.emplace_back(s.poly, static_cast<int>(c));
  }
  int prev_comp = -1;
  for (AttrId a : s.poly.FamilyOrder()) {
    const int c = s.poly.ComponentOfAttr(a);
    if (c < 0) continue;
    if (c != prev_comp) sweeps[c].BeginSweep(s.state, ctx);
    prev_comp = c;
    const auto got = sweeps[c].FamilyCofactors(a, &ctx);
    const auto want = oracle.AlphaDerivatives(s.state, ctx, a);
    for (Code v = 0; v < s.reg.domain_size(a); ++v) {
      EXPECT_NEAR(got[v], want[v], kRelTol * std::max(1.0, std::abs(want[v])))
          << "attr " << a << " value " << v;
    }
    sweeps[c].Advance(a, /*alphas_changed=*/false, ctx);
  }
  // After every family advanced, the running prefix is the per-group
  // interval product, and the derived component value matches evaluation.
  auto fresh = s.poly.EvaluateUnmasked(s.state);
  const auto rs_ref = oracle.GroupRangeSumProducts(fresh);
  for (size_t c = 0; c < s.poly.NumComponents(); ++c) {
    const auto& rs = sweeps[c].RangeSumProducts();
    ASSERT_EQ(rs.size(), rs_ref[c].size());
    for (size_t g = 0; g < rs.size(); ++g) {
      ExpectClose(rs[g], rs_ref[c][g], "sweep interval product");
    }
    ExpectClose(sweeps[c].ComponentValue(fresh), fresh.comp_value[c],
                "sweep component value");
  }
}

TEST(EvalWorkspaceTest, ParallelComponentPathMatchesSerial) {
  // Force the component fan-out (parallel_min_groups = 0) on a polynomial
  // with two disjoint components and compare against the default serial
  // path. On single-core hosts ParallelFor degrades to the inline loop;
  // either way the results must agree because components write disjoint
  // outputs.
  auto table = RandomTable({5, 4, 6, 3}, 400, 113);
  std::vector<MultiDimStatistic> stats;
  auto s01 = RandomDisjointStats(*table, 0, 1, 4, 114);
  auto s23 = RandomDisjointStats(*table, 2, 3, 4, 115);
  stats.insert(stats.end(), s01.begin(), s01.end());
  stats.insert(stats.end(), s23.begin(), s23.end());
  auto reg = MakeRegistry(*table, stats);
  PolynomialOptions par_opts;
  par_opts.parallel_min_groups = 0;
  auto par = CompressedPolynomial::Build(reg, par_opts);
  auto ser = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(par.ok());
  ASSERT_TRUE(ser.ok());
  ASSERT_EQ(par->NumComponents(), 2u);
  ModelState st = RandomState(reg, 116);

  auto par_ctx = par->EvaluateUnmasked(st);
  auto ser_ctx = ser->EvaluateUnmasked(st);
  ExpectClose(par_ctx.value, ser_ctx.value, "parallel evaluate");
  for (size_t c = 0; c < ser_ctx.comp_value.size(); ++c) {
    ExpectClose(par_ctx.comp_value[c], ser_ctx.comp_value[c],
                "parallel component value");
  }

  const auto par_d = par->AllDerivatives(st, par_ctx);
  const auto ser_d = ser->AllDerivatives(st, ser_ctx);
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    for (Code v = 0; v < reg.domain_size(a); ++v) {
      ExpectClose(par_d.alpha[a][v], ser_d.alpha[a][v],
                  "parallel alpha derivative");
    }
  }
  for (uint32_t j = 0; j < reg.num_multi_dim(); ++j) {
    ExpectClose(par_d.delta[j], ser_d.delta[j], "parallel delta derivative");
  }
}

TEST(EvalWorkspaceTest, NoComponentPolynomialStillWorks) {
  // 1-D-only summaries have no groups at all; the workspace path must
  // degrade to plain factorized products.
  auto table = RandomTable({5, 4, 3}, 200, 110);
  auto reg = MakeRegistry(*table, {});
  auto poly = CompressedPolynomial::Build(reg);
  ASSERT_TRUE(poly.ok());
  const ClosureOracle oracle(*poly);
  ModelState st = RandomState(reg, 111);
  EvalWorkspace ws;
  for (int trial = 0; trial < 10; ++trial) {
    QueryMask mask = RandomMask(reg, 2000 + trial, 0.6);
    ExpectClose(poly->MaskedEvaluate(st, mask, &ws).value,
                oracle.Evaluate(st, mask).value, "free-only masked value");
  }
  auto ctx = poly->EvaluateUnmasked(st);
  const auto all = poly->AllDerivatives(st, ctx);
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    const auto want = oracle.AlphaDerivatives(st, ctx, a);
    for (Code v = 0; v < want.size(); ++v) {
      ExpectClose(all.alpha[a][v], want[v], "free-only alpha derivative");
    }
  }
}

}  // namespace
}  // namespace entropydb
