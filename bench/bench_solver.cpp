// Solver performance (Sec 3.3 / 5): cost of polynomial evaluation, one
// mirror-descent sweep, and full model fitting — plus the ablation the
// paper describes in Sec 5: its first implementation re-evaluated P per
// variable (an estimated 3 months of runtime); the optimized evaluation
// brought model computation under a day. We compare our single-sweep
// derivative pass against the naive two-evaluations-per-variable scheme.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

struct SolverFixture {
  std::shared_ptr<Table> table;
  std::unique_ptr<VariableRegistry> reg;
  std::unique_ptr<CompressedPolynomial> poly;
  ModelState initial;

  static SolverFixture& Get() {
    static SolverFixture* f = [] {
      auto* fx = new SolverFixture();
      BenchScale scale = ReadScale();
      FlightsConfig cfg;
      cfg.num_rows = scale.flights_rows;
      cfg.seed = 42;
      fx->table = *FlightsGenerator::Generate(cfg);
      const Table& t = *fx->table;
      FlightsPairs p = ResolveFlightsPairs(t);
      StatisticSelector sel(SelectionHeuristic::kComposite);
      std::vector<MultiDimStatistic> stats;
      for (int which : {1, 2, 3}) {
        auto [a, b] = p.pair(which);
        auto s = sel.Select(t, a, b, scale.bs_three_pair);
        stats.insert(stats.end(), s.begin(), s.end());
      }
      ExactEvaluator eval(t);
      std::vector<uint32_t> sizes;
      std::vector<std::vector<double>> targets;
      for (AttrId a = 0; a < t.num_attributes(); ++a) {
        sizes.push_back(t.domain(a).size());
        auto h = eval.Histogram1D(a);
        targets.emplace_back(h.begin(), h.end());
      }
      fx->reg = std::make_unique<VariableRegistry>(*VariableRegistry::Create(
          sizes, targets, stats, static_cast<double>(t.num_rows())));
      fx->poly = std::make_unique<CompressedPolynomial>(
          *CompressedPolynomial::Build(*fx->reg));
      fx->initial = ModelState::InitialState(*fx->reg);
      return fx;
    }();
    return *f;
  }
};


/// Widest attribute that participates in a component — free attributes have
/// constant cofactors and would make the comparison trivial.
AttrId WidestComponentAttr(const VariableRegistry& reg,
                           const CompressedPolynomial& poly) {
  AttrId best = 0;
  uint32_t best_size = 0;
  for (AttrId a = 0; a < reg.num_attributes(); ++a) {
    if (poly.ComponentOfAttr(a) >= 0 && reg.domain_size(a) > best_size) {
      best = a;
      best_size = reg.domain_size(a);
    }
  }
  return best;
}

void BM_PolynomialEvaluate(benchmark::State& state) {
  auto& f = SolverFixture::Get();
  for (auto _ : state) {
    auto ctx = f.poly->EvaluateUnmasked(f.initial);
    benchmark::DoNotOptimize(ctx.value);
  }
}
BENCHMARK(BM_PolynomialEvaluate);

void BM_NaivePerVariableDerivatives(benchmark::State& state) {
  // Ablation: the cofactors of the widest family computed the naive way —
  // per variable, via P and P[alpha_v = 0] (two evaluations each, as the
  // paper's pre-optimization Java prototype effectively did).
  auto& f = SolverFixture::Get();
  AttrId widest = WidestComponentAttr(*f.reg, *f.poly);
  const uint32_t n = f.reg->domain_size(widest);
  ModelState zeroed = f.initial;
  for (auto _ : state) {
    auto full = f.poly->EvaluateUnmasked(f.initial);
    std::vector<double> derivs(n);
    for (Code v = 0; v < n; ++v) {
      const double alpha = f.initial.alpha[widest][v];
      if (alpha == 0.0) {
        derivs[v] = 0.0;
        continue;
      }
      zeroed.alpha[widest][v] = 0.0;
      const double without = f.poly->EvaluateUnmasked(zeroed).value;
      zeroed.alpha[widest][v] = alpha;
      derivs[v] = (full.value - without) / alpha;
    }
    benchmark::DoNotOptimize(derivs.data());
  }
  state.counters["vars_per_pass"] = static_cast<double>(n);
}
BENCHMARK(BM_NaivePerVariableDerivatives);

void BM_AllDerivativesSingleSweep(benchmark::State& state) {
  // The new engine: ONE prefix/suffix-cofactor sweep over the groups
  // yields every alpha derivative of every attribute plus every delta
  // derivative.
  auto& f = SolverFixture::Get();
  auto ctx = f.poly->EvaluateUnmasked(f.initial);
  for (auto _ : state) {
    auto d = f.poly->AllDerivatives(f.initial, ctx);
    benchmark::DoNotOptimize(d.delta.data());
  }
  state.counters["vars_per_pass"] =
      static_cast<double>(f.reg->TotalVariables());
}
BENCHMARK(BM_AllDerivativesSingleSweep);

void BM_SolverSweep(benchmark::State& state) {
  auto& f = SolverFixture::Get();
  SolverOptions opts;
  opts.max_iterations = 1;
  opts.record_trace = false;
  MaxEntSolver solver(*f.reg, *f.poly, opts);
  for (auto _ : state) {
    ModelState st = f.initial;
    auto report = solver.Solve(&st);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_SolverSweep);

void BM_SolveToConvergence(benchmark::State& state) {
  auto& f = SolverFixture::Get();
  SolverOptions opts;
  opts.max_iterations = 30;
  opts.tolerance = 1e-6;
  MaxEntSolver solver(*f.reg, *f.poly, opts);
  for (auto _ : state) {
    ModelState st = f.initial;
    auto report = solver.Solve(&st);
    benchmark::DoNotOptimize(report);
    state.counters["iterations"] =
        static_cast<double>(report.ok() ? (*report).iterations : 0);
  }
}
BENCHMARK(BM_SolveToConvergence)->Unit(benchmark::kMillisecond);

}  // namespace

ENTROPYDB_BENCH_MAIN();
