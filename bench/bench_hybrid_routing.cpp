// Hybrid summary-vs-sample routing: reproduces the paper's central
// crossover (Figs. 5-6) inside ONE serving store.
//
// Fixture: a relation with two planted correlations. The store holds a
// maxent summary modeling pair (0, 1) ONLY, plus a stratified sample drawn
// on pair (2, 3) — so each source is strong exactly where the other is
// blind.
//
// Before benchmarks run, a verification pass measures mean relative error
// against exact ground truth for summary-direct, sample-direct, and routed
// answering on two workloads, and states the acceptance bars as gate rows:
//  - SELECTIVE (rare off-diagonal (2, 3) strata): the sample beats the
//    summary, and routing follows the sample;
//  - BROAD (range filters on the modeled (0, 1) pair): the summary beats
//    the sample, and routing follows the summary;
//  - every routed answer is bitwise the chosen source's own answer.
// --gate_out FILE writes the rows for tools/check_perf_gate.py.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

std::shared_ptr<Table> HybridTable(size_t n, uint64_t seed) {
  const std::vector<uint32_t> sizes = {8, 8, 24, 24};
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < sizes.size(); ++a) {
    specs.push_back(AttributeSpec{"A" + std::to_string(a),
                                  AttributeType::kInteger, sizes[a]});
  }
  TableBuilder b(Schema{std::move(specs)});
  for (size_t a = 0; a < sizes.size(); ++a) {
    b.SetDomain(static_cast<AttrId>(a),
                Domain::Binned(0, sizes[a], sizes[a]));
  }
  Rng rng(seed);
  std::vector<Code> row(4);
  for (size_t r = 0; r < n; ++r) {
    row[0] = static_cast<Code>(rng.Uniform(8));
    row[1] = rng.NextBernoulli(0.9) ? row[0]
                                    : static_cast<Code>(rng.Uniform(8));
    row[2] = static_cast<Code>(rng.Uniform(24));
    row[3] = rng.NextBernoulli(0.95) ? row[2]
                                     : static_cast<Code>(rng.Uniform(24));
    b.AppendEncodedRow(row);
  }
  return *b.Finish();
}

struct HybridFixture {
  std::shared_ptr<Table> table;
  std::shared_ptr<SourceStore> store;
  std::shared_ptr<EntropyEngine> engine;
  std::unique_ptr<ExactEvaluator> exact;
  std::vector<CountingQuery> selective;  // rare off-diagonal (2, 3) cells
  std::vector<CountingQuery> broad;      // ranges on the modeled (0, 1)

  static HybridFixture& Get() {
    static HybridFixture* f = [] {
      auto* fx = new HybridFixture();
      fx->table = HybridTable(30'000, 1201);
      const Table& t = *fx->table;

      StatisticSelector selector(SelectionHeuristic::kComposite);
      SummaryOptions sopts;
      sopts.solver.max_iterations = 200;
      auto summary =
          EntropySummary::Build(t, selector.Select(t, 0, 1, 60), sopts);
      StoreEntry entry;
      entry.summary = *summary;
      entry.pairs = {ScoredPair{0, 1, 0.9, 0.0}};

      auto drawn = StratifiedSampler::Create(t, 2, 3, 0.05, 17);
      SampleEntry sample;
      sample.sample =
          std::make_shared<WeightedSample>(std::move(drawn).ValueOrDie());
      sample.pairs = {ScoredPair{2, 3, 0.95, 0.0}};

      fx->store = *SourceStore::FromParts({entry}, {sample});
      fx->engine = EntropyEngine::FromStore(fx->store);
      fx->exact = std::make_unique<ExactEvaluator>(t);

      // Selective workload: off-diagonal (2, 3) cells with 1-5 rows.
      for (const auto& [key, count] : fx->exact->GroupByCount({2, 3})) {
        if (key[0] == key[1] || count < 1 || count > 5) continue;
        CountingQuery q(4);
        q.Where(2, AttrPredicate::Point(key[0]))
            .Where(3, AttrPredicate::Point(key[1]));
        fx->selective.push_back(q);
      }
      // Broad workload: both attributes of the modeled pair constrained
      // with wide ranges (thousands of matching rows each).
      for (Code v = 0; v < 8; ++v) {
        CountingQuery q(4);
        q.Where(0, AttrPredicate::Point(v)).Where(1, AttrPredicate::Range(0, 7));
        fx->broad.push_back(q);
        CountingQuery r(4);
        r.Where(0, AttrPredicate::Range(0, v)).Where(1, AttrPredicate::Point(v));
        fx->broad.push_back(r);
      }
      return fx;
    }();
    return *f;
  }
};

double RelError(double est, double truth) {
  return std::abs(est - truth) / std::max(1.0, truth);
}

struct WorkloadErrors {
  double summary = 0.0;
  double sample = 0.0;
  double routed = 0.0;
  size_t routed_to_sample = 0;
  size_t queries = 0;
  double max_routing_mismatch = 0.0;  // routed vs chosen source, bitwise
};

WorkloadErrors Measure(const std::vector<CountingQuery>& workload) {
  auto& f = HybridFixture::Get();
  QueryRouter router(f.store);
  WorkloadErrors e;
  for (const auto& q : workload) {
    const double truth = static_cast<double>(f.exact->Count(q));
    auto via_summary = f.store->summary(0).Answer(q);
    auto via_sample = f.store->sample_source(0).Answer(q);
    RouteDecision dec;
    auto routed = router.Answer(q, &dec);
    if (!via_summary.ok() || !via_sample.ok() || !routed.ok()) {
      std::fprintf(stderr, "answer failed during measurement\n");
      std::exit(1);
    }
    e.summary += RelError(via_summary->expectation, truth);
    e.sample += RelError(via_sample->expectation, truth);
    e.routed += RelError(routed->expectation, truth);
    e.routed_to_sample += dec.from_sample ? 1 : 0;
    const double chosen = dec.from_sample ? via_sample->expectation
                                          : via_summary->expectation;
    e.max_routing_mismatch = std::max(
        e.max_routing_mismatch, std::abs(routed->expectation - chosen));
    ++e.queries;
  }
  if (e.queries > 0) {
    e.summary /= static_cast<double>(e.queries);
    e.sample /= static_cast<double>(e.queries);
    e.routed /= static_cast<double>(e.queries);
  }
  return e;
}

void BM_HybridRoutedSelective(benchmark::State& state) {
  auto& f = HybridFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto est = f.engine->Answer(f.selective[i % f.selective.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridRoutedSelective);

void BM_HybridRoutedBroad(benchmark::State& state) {
  auto& f = HybridFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto est = f.engine->Answer(f.broad[i % f.broad.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HybridRoutedBroad);

/// Routing overhead ablation: the same selective workload answered by the
/// summary alone (no sample consult).
void BM_SummaryDirectSelective(benchmark::State& state) {
  auto& f = HybridFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto est = f.store->summary(0).Answer(
        f.selective[i % f.selective.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryDirectSelective);

}  // namespace

int main(int argc, char** argv) {
  ApplyQuickFlag(&argc, argv);
  GateRows gate(&argc, argv);
  auto& f = HybridFixture::Get();
  const WorkloadErrors sel = Measure(f.selective);
  gate.Record("selective.queries", sel.queries);
  gate.Record("selective.summary_err", sel.summary);
  gate.Enforce("selective.sample_err", sel.sample, "<", sel.summary);
  gate.Enforce("selective.routed_err", sel.routed, "<", sel.summary);
  gate.Record("selective.routed_to_sample", sel.routed_to_sample);
  gate.Enforce("selective.routing_mismatch", sel.max_routing_mismatch, "==",
               0.0);
  const WorkloadErrors brd = Measure(f.broad);
  gate.Record("broad.queries", brd.queries);
  gate.Enforce("broad.summary_err", brd.summary, "<", brd.sample);
  gate.Record("broad.sample_err", brd.sample);
  gate.Enforce("broad.routed_err", brd.routed, "<", brd.sample);
  gate.Record("broad.routed_to_sample", brd.routed_to_sample);
  gate.Enforce("broad.routing_mismatch", brd.max_routing_mismatch, "==", 0.0);
  // What routing costs where the summary wins: routed answers (coverage,
  // the summary, and the companion's bounded challenge walk) against the
  // summary alone. Recorded for the trajectory, not enforced.
  const QueryRouter router(f.store);
  auto routed = [&] {
    for (const auto& q : f.broad) {
      auto e = router.Answer(q);
      benchmark::DoNotOptimize(e);
    }
  };
  auto direct = [&] {
    for (const auto& q : f.broad) {
      auto e = f.store->summary(0).Answer(q);
      benchmark::DoNotOptimize(e);
    }
  };
  const auto [routed_ns, direct_ns] = InterleavedMedianNs(routed, direct);
  gate.Record("broad.routed_ns", routed_ns / f.broad.size());
  gate.Record("broad.summary_direct_ns", direct_ns / f.broad.size());
  if (!gate.Write()) return 1;
  return RunBenchmarks(argc, argv);
}
