// Query answering latency (Sec 5 / 6.2: EntropyDB answers in < 1 s, ~500 ms
// on the authors' 1e10-tuple domains; our domains are smaller so absolute
// numbers are microseconds, but the comparison against sample and full
// scans — and the independence from base-data size — is the reproduced
// claim).
//
// google-benchmark binary: run with --benchmark_filter=... as usual.

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

struct LatencyFixture {
  std::shared_ptr<Table> table;
  std::shared_ptr<EntropySummary> summary;
  /// The serving facade over `summary` — the query path benches go through
  /// it, like the tools and examples do.
  std::shared_ptr<EntropyEngine> engine;
  /// Ent3&4: (time, distance) and (origin, dest) are separate components.
  std::shared_ptr<EntropyEngine> engine34;
  std::shared_ptr<WeightedSample> uni;
  CountingQuery point_query;
  CountingQuery range_query;
  CountingQuery single_pred_query;

  static LatencyFixture& Get() {
    static LatencyFixture* f = [] {
      auto* fx = new LatencyFixture();
      BenchScale scale = ReadScale();
      FlightsConfig cfg;
      cfg.num_rows = scale.flights_rows;
      cfg.seed = 42;
      fx->table = *FlightsGenerator::Generate(cfg);
      auto summaries = BuildFlightsSummaries(*fx->table, scale);
      fx->summary = summaries->ent123;
      fx->engine = EntropyEngine::FromSummary(fx->summary);
      fx->engine34 = EntropyEngine::FromSummary(summaries->ent34);
      fx->uni = std::make_shared<WeightedSample>(
          *UniformSampler::Create(*fx->table, scale.sample_fraction, 5));
      FlightsPairs p = ResolveFlightsPairs(*fx->table);
      fx->point_query = CountingQuery(5);
      fx->point_query.Where(p.origin, AttrPredicate::Point(3))
          .Where(p.dest, AttrPredicate::Point(7));
      fx->range_query = CountingQuery(5);
      fx->range_query.Where(p.distance, AttrPredicate::Range(10, 40))
          .Where(p.time, AttrPredicate::Range(5, 30));
      fx->single_pred_query = CountingQuery(5);
      fx->single_pred_query.Where(p.origin, AttrPredicate::Point(3));
      return fx;
    }();
    return *f;
  }
};

void BM_SummaryPointQuery(benchmark::State& state) {
  auto& f = LatencyFixture::Get();
  for (auto _ : state) {
    auto est = f.engine->Answer(f.point_query);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_SummaryPointQuery);

void BM_SummarySinglePredicateQuery(benchmark::State& state) {
  // The interactive common case: one constrained attribute of five. The
  // cached workspace rebuilds one prefix sum and re-walks one component —
  // everything else is served from the unmasked caches.
  auto& f = LatencyFixture::Get();
  for (auto _ : state) {
    auto est = f.engine->Answer(f.single_pred_query);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_SummarySinglePredicateQuery);

void BM_MaskedEvalFresh(benchmark::State& state) {
  // Ablation: the seed path — every masked evaluation zeroed the excluded
  // alphas (Sec 4.2), rebuilt all per-attribute prefix sums and walked
  // every group of every component.
  auto& f = LatencyFixture::Get();
  const auto& poly = f.summary->polynomial();
  const auto& st = f.summary->state();
  const CountingQuery& q = f.single_pred_query;
  ModelState zeroed = st;
  for (auto _ : state) {
    for (AttrId a = 0; a < zeroed.alpha.size(); ++a) {
      const AttrPredicate& pred = q.predicate(a);
      if (pred.is_any()) continue;
      for (Code v = 0; v < zeroed.alpha[a].size(); ++v) {
        zeroed.alpha[a][v] = pred.Matches(v) ? st.alpha[a][v] : 0.0;
      }
    }
    auto ctx = poly.EvaluateUnmasked(zeroed);
    benchmark::DoNotOptimize(ctx.value);
  }
}
BENCHMARK(BM_MaskedEvalFresh);

void BM_MaskedEvalCached(benchmark::State& state) {
  // The new path: same query, served from a warmed EvalWorkspace.
  auto& f = LatencyFixture::Get();
  const auto& poly = f.summary->polynomial();
  const auto& st = f.summary->state();
  EvalWorkspace ws;
  poly.PrepareWorkspace(st, &ws);
  for (auto _ : state) {
    auto eval = poly.MaskedEvaluate(st, f.single_pred_query, &ws);
    benchmark::DoNotOptimize(eval.value);
  }
}
BENCHMARK(BM_MaskedEvalCached);

void BM_SummaryRangeQuery(benchmark::State& state) {
  auto& f = LatencyFixture::Get();
  for (auto _ : state) {
    auto est = f.engine->Answer(f.range_query);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_SummaryRangeQuery);

void BM_SummaryGroupBy16(benchmark::State& state) {
  auto& f = LatencyFixture::Get();
  FlightsPairs p = ResolveFlightsPairs(*f.table);
  std::vector<std::vector<Code>> keys;
  for (Code o = 0; o < 4; ++o) {
    for (Code d = 0; d < 4; ++d) keys.push_back({o, d});
  }
  for (auto _ : state) {
    auto groups =
        f.engine->AnswerGroupBy({p.origin, p.dest}, keys, CountingQuery(5));
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_SummaryGroupBy16);

void BM_SummaryGroupBy16FilteredBase(benchmark::State& state) {
  // The same 16 (origin, dest) keys under the range query's filter, on
  // Ent3&4: the filter's attributes (distance, time) form the other
  // component, whose masked walk every key shares.
  auto& f = LatencyFixture::Get();
  FlightsPairs p = ResolveFlightsPairs(*f.table);
  std::vector<std::vector<Code>> keys;
  for (Code o = 0; o < 4; ++o) {
    for (Code d = 0; d < 4; ++d) keys.push_back({o, d});
  }
  for (auto _ : state) {
    auto groups =
        f.engine34->AnswerGroupBy({p.origin, p.dest}, keys, f.range_query);
    benchmark::DoNotOptimize(groups);
  }
}
BENCHMARK(BM_SummaryGroupBy16FilteredBase);

void BM_UniformSampleScan(benchmark::State& state) {
  auto& f = LatencyFixture::Get();
  SampleEstimator est(*f.uni);
  for (auto _ : state) {
    auto e = est.Count(f.range_query);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_UniformSampleScan);

void BM_ExactFullScan(benchmark::State& state) {
  auto& f = LatencyFixture::Get();
  ExactEvaluator exact(*f.table);
  for (auto _ : state) {
    auto c = exact.Count(f.range_query);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_ExactFullScan);

// Query latency must not depend on the base-data size: rebuild the summary
// from tables of growing cardinality and time the same query.
void BM_SummaryQueryVsDataSize(benchmark::State& state) {
  BenchScale scale = ReadScale();
  FlightsConfig cfg;
  cfg.num_rows = static_cast<size_t>(state.range(0));
  cfg.seed = 42;
  auto table = *FlightsGenerator::Generate(cfg);
  auto summaries = BuildFlightsSummaries(*table, scale);
  auto engine = EntropyEngine::FromSummary(summaries->ent123);
  FlightsPairs p = ResolveFlightsPairs(*table);
  CountingQuery q(5);
  q.Where(p.origin, AttrPredicate::Point(1))
      .Where(p.distance, AttrPredicate::Range(5, 25));
  for (auto _ : state) {
    auto est = engine->Answer(q);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_SummaryQueryVsDataSize)->Arg(50000)->Arg(200000)->Arg(400000);

}  // namespace

ENTROPYDB_BENCH_MAIN();
