// Join fusion (maxent/join_fusion.h, engine AnswerJoin): fuse two
// relations' summaries on a shared join attribute and answer equi-join
// COUNT/SUM without touching either relation's rows — the PR 10 claim
// that cross-relation estimates stay a pure model-side operation.
//
// Before benchmarks run, a verification pass states the claims as gate
// rows:
//   * fused JOIN_COUNT and JOIN_SUM estimates over exactly-pinned models
//     (full pair statistics, solver driven past default tolerance) must
//     stay within 1e-4 (relative) of brute-force ground truth over the
//     query battery, and
//   * the fused estimate must be faster than the exact single-pass scan
//     of both relations (the fusion reads two model marginals; the scan
//     reads every row — enforceable on any core count).
// --gate_out FILE writes the rows for tools/check_perf_gate.py.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "query/exact_evaluator.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

constexpr uint32_t kJoinDomain = 12;
constexpr uint32_t kLeftFilterDomain = 8;
constexpr uint32_t kRightFilterDomain = 6;

std::shared_ptr<Table> JoinSideTable(size_t n, uint32_t filter_domain,
                                     uint64_t seed) {
  const std::vector<uint32_t> sizes = {kJoinDomain, filter_domain};
  std::vector<AttributeSpec> specs;
  for (size_t a = 0; a < sizes.size(); ++a) {
    specs.push_back(AttributeSpec{"A" + std::to_string(a),
                                  AttributeType::kInteger, sizes[a]});
  }
  TableBuilder b(Schema{std::move(specs)});
  for (size_t a = 0; a < sizes.size(); ++a) {
    b.SetDomain(static_cast<AttrId>(a), Domain::Binned(0, sizes[a], sizes[a]));
  }
  Rng rng(seed);
  std::vector<Code> row(2);
  for (size_t r = 0; r < n; ++r) {
    row[0] = static_cast<Code>(rng.Uniform(kJoinDomain));
    // Correlate the filter attribute with the join key so filtered join
    // marginals are NOT flat — the delta variance has to work.
    row[1] = rng.NextBernoulli(0.6)
                 ? static_cast<Code>(row[0] % filter_domain)
                 : static_cast<Code>(rng.Uniform(filter_domain));
    b.AppendEncodedRow(row);
  }
  return *b.Finish();
}

/// Full point-pair 2-D statistics over (join, filter): the model then
/// reproduces the joint exactly, so the fidelity bar isolates the fusion
/// algebra instead of model error.
std::vector<MultiDimStatistic> FullPairStats(const Table& t) {
  ExactEvaluator eval(t);
  const std::vector<uint64_t> h2 = eval.Histogram2D(0, 1);
  const uint32_t nb = t.domain(1).size();
  std::vector<MultiDimStatistic> stats;
  for (Code ca = 0; ca < t.domain(0).size(); ++ca) {
    for (Code cb = 0; cb < nb; ++cb) {
      stats.push_back(Make2DStatistic(0, Interval{ca, ca}, 1,
                                      Interval{cb, cb},
                                      static_cast<double>(h2[ca * nb + cb])));
    }
  }
  return stats;
}

struct JoinWorkload {
  CountingQuery left_where{2};
  CountingQuery right_where{2};
};

struct JoinFixture {
  std::shared_ptr<Table> left_table;
  std::shared_ptr<Table> right_table;
  std::shared_ptr<EntropyEngine> left;
  std::shared_ptr<EntropyEngine> right;
  std::vector<double> weights;
  std::vector<JoinWorkload> battery;

  static JoinFixture& Get() {
    static JoinFixture* f = [] {
      auto* fx = new JoinFixture();
      const BenchScale scale = ReadScale();
      const size_t left_rows = std::max<size_t>(40'000, scale.flights_rows / 4);
      const size_t right_rows =
          std::max<size_t>(20'000, scale.flights_rows / 8);
      fx->left_table = JoinSideTable(left_rows, kLeftFilterDomain, 9101);
      fx->right_table = JoinSideTable(right_rows, kRightFilterDomain, 9103);

      SummaryOptions sopts;
      sopts.solver.max_iterations = 6000;
      sopts.solver.tolerance = 1e-12;
      auto ls = EntropySummary::Build(*fx->left_table,
                                      FullPairStats(*fx->left_table), sopts);
      auto rs = EntropySummary::Build(*fx->right_table,
                                      FullPairStats(*fx->right_table), sopts);
      if (!ls.ok() || !rs.ok()) {
        std::fprintf(stderr, "fixture summary build failed\n");
        std::exit(1);
      }
      fx->left = EntropyEngine::FromSummary(*ls);
      fx->right = EntropyEngine::FromSummary(*rs);
      fx->weights = BucketWeights(fx->left_table->domain(1));

      // Mixed battery: unfiltered, one-sided, and two-sided filters.
      Rng rng(9203);
      for (size_t i = 0; i < 48; ++i) {
        JoinWorkload w;
        if (rng.NextBernoulli(0.7)) {
          Code lo = static_cast<Code>(rng.Uniform(kLeftFilterDomain));
          Code hi = static_cast<Code>(rng.Uniform(kLeftFilterDomain));
          if (hi < lo) std::swap(lo, hi);
          w.left_where.Where(1, AttrPredicate::Range(lo, hi));
        }
        if (rng.NextBernoulli(0.5)) {
          w.right_where.Where(
              1, AttrPredicate::Point(
                     static_cast<Code>(rng.Uniform(kRightFilterDomain))));
        }
        fx->battery.push_back(w);
      }
      return fx;
    }();
    return *f;
  }
};

/// Exact equi-join COUNT by one filtered scan per side: histogram the join
/// key under each filter, then dot the histograms. This is the cheapest
/// possible exact answer — the baseline the fusion must beat.
double ExactJoinCount(const JoinWorkload& w) {
  auto& f = JoinFixture::Get();
  ExactEvaluator le(*f.left_table), re(*f.right_table);
  const auto lhist = le.GroupByCount({0}, w.left_where);
  const auto rhist = re.GroupByCount({0}, w.right_where);
  double total = 0.0;
  for (const auto& [key, count] : lhist) {
    auto it = rhist.find(key);
    if (it != rhist.end()) {
      total += static_cast<double>(count) * static_cast<double>(it->second);
    }
  }
  return total;
}

/// Exact equi-join SUM(left A1) via the (join, A1) grid on the left.
double ExactJoinSum(const JoinWorkload& w) {
  auto& f = JoinFixture::Get();
  ExactEvaluator le(*f.left_table), re(*f.right_table);
  const auto lgrid = le.GroupByCount({0, 1}, w.left_where);
  const auto rhist = re.GroupByCount({0}, w.right_where);
  double total = 0.0;
  for (const auto& [key, count] : lgrid) {
    auto it = rhist.find({key[0]});
    if (it != rhist.end()) {
      total += static_cast<double>(count) * f.weights[key[1]] *
               static_cast<double>(it->second);
    }
  }
  return total;
}

Result<QueryResult> FusedCount(const JoinWorkload& w) {
  auto& f = JoinFixture::Get();
  return f.left->AnswerJoin(
      AggregateQuery::JoinCount(0, 0, w.left_where, w.right_where), *f.right);
}

Result<QueryResult> FusedSum(const JoinWorkload& w) {
  auto& f = JoinFixture::Get();
  return f.left->AnswerJoin(
      AggregateQuery::JoinSum(1, f.weights, 0, 0, w.left_where,
                              w.right_where),
      *f.right);
}

/// Largest relative fused-vs-exact divergence over the battery.
void FidelityMaxRelErr(double* count_err, double* sum_err) {
  auto& f = JoinFixture::Get();
  *count_err = 0.0;
  *sum_err = 0.0;
  for (const JoinWorkload& w : f.battery) {
    auto fused = FusedCount(w);
    auto fused_sum = FusedSum(w);
    if (!fused.ok() || !fused_sum.ok()) {
      std::fprintf(stderr, "fused answer failed during verification\n");
      std::exit(1);
    }
    const double truth = ExactJoinCount(w);
    const double sum_truth = ExactJoinSum(w);
    *count_err = std::max(
        *count_err, std::fabs(fused->estimate.expectation - truth) /
                        std::max(1.0, std::fabs(truth)));
    *sum_err = std::max(
        *sum_err, std::fabs(fused_sum->estimate.expectation - sum_truth) /
                      std::max(1.0, std::fabs(sum_truth)));
  }
}

/// Best-of-3 mean ns/query over the battery.
double MeasureNs(const std::function<void(const JoinWorkload&)>& answer) {
  auto& f = JoinFixture::Get();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    for (const JoinWorkload& w : f.battery) answer(w);
    const double ns = timer.ElapsedSeconds() * 1e9 / f.battery.size();
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

void BM_FusedJoinCount(benchmark::State& state) {
  auto& f = JoinFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto est = FusedCount(f.battery[i % f.battery.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusedJoinCount);

void BM_FusedJoinSum(benchmark::State& state) {
  auto& f = JoinFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    auto est = FusedSum(f.battery[i % f.battery.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FusedJoinSum);

void BM_ExactJoinCount(benchmark::State& state) {
  auto& f = JoinFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const double truth = ExactJoinCount(f.battery[i % f.battery.size()]);
    benchmark::DoNotOptimize(truth);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactJoinCount);

}  // namespace

int main(int argc, char** argv) {
  ApplyQuickFlag(&argc, argv);
  GateRows gate(&argc, argv);
  auto& f = JoinFixture::Get();
  gate.Record("left_rows", f.left_table->num_rows());
  gate.Record("right_rows", f.right_table->num_rows());
  gate.Record("queries", f.battery.size());
  double count_err = 0.0, sum_err = 0.0;
  FidelityMaxRelErr(&count_err, &sum_err);
  gate.Enforce("fidelity.count_max_rel_err", count_err, "<=", 1e-4);
  gate.Enforce("fidelity.sum_max_rel_err", sum_err, "<=", 1e-4);
  const double fused_ns = MeasureNs([](const JoinWorkload& w) {
    auto est = FusedCount(w);
    benchmark::DoNotOptimize(est);
  });
  const double exact_ns = MeasureNs([](const JoinWorkload& w) {
    const double truth = ExactJoinCount(w);
    benchmark::DoNotOptimize(truth);
  });
  gate.Enforce("latency.fused_ns", fused_ns, "<", exact_ns);
  gate.Record("latency.exact_ns", exact_ns);
  gate.Record("latency.speedup", exact_ns / std::max(fused_ns, 1.0));
  if (!gate.Write()) return 1;
  return RunBenchmarks(argc, argv);
}
