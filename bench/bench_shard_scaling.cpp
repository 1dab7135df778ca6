// Sharded store scaling: build wall-clock vs. shard count, and merged
// answer fidelity vs. the additive per-shard reference — the Fig 7 build
// concern taken to the sharded layout. Partitioned builds split the
// row-linear work (pair ranking is hoisted and done once; per-shard stat
// selection, sample draws, and index builds all scale with shard rows), so
// an S-shard build on a multi-core box should beat the single-shard build
// wall-clock while answering with the same merged totals.
//
// Before benchmarks run, a verification pass states the claims as gate
// rows:
//   * merged COUNT/SUM estimates and variances over a fuzzed workload must
//     match the additive per-shard reference to <= 1e-9 relative error
//     (they are computed by exactly that sum, so drift means the fan-out
//     or merge plumbing broke), and
//   * on a multi-core machine, the parallel S-shard build must be faster
//     than the S = 1 build of the same table (on a single core the shard
//     fan-out degrades inline, so the wall time is a recorded row there,
//     not an enforced one).
// --gate_out FILE writes the rows for tools/check_perf_gate.py.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

constexpr size_t kShards = 4;

std::shared_ptr<Table> ScalingTable(size_t n, uint64_t seed) {
  const std::vector<uint32_t> sizes = {24, 24, 16, 12};
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
  std::vector<Code> row(4);
  for (size_t r = 0; r < n; ++r) {
    row[0] = static_cast<Code>(rng.Uniform(24));
    row[1] = rng.NextBernoulli(0.75) ? row[0]
                                     : static_cast<Code>(rng.Uniform(24));
    row[2] = static_cast<Code>(rng.Uniform(16));
    row[3] = rng.NextBernoulli(0.6) ? (row[2] % 12)
                                    : static_cast<Code>(rng.Uniform(12));
    b.AppendEncodedRow(row);
  }
  return *b.Finish();
}

/// Build knobs chosen so the row-linear work (stat selection, sample
/// draws, row-group indexes) dominates the fixed-cost solver iterations —
/// the regime sharding actually scales.
ShardedOptions ScalingOptions(size_t shards) {
  ShardedOptions opts;
  opts.num_shards = shards;
  opts.store.num_summaries = 2;
  opts.store.total_budget = 120;
  opts.store.summary.solver.max_iterations = 40;
  opts.store.num_stratified_samples = 1;
  opts.store.uniform_sample = true;
  opts.store.sample_fraction = 0.05;
  return opts;
}

struct ScalingFixture {
  std::shared_ptr<Table> table;
  /// One prebuilt store per benchmarked shard count. Stores AND the query
  /// workload are constructed here, once — the S-scaling answer benchmarks
  /// below time fan-out and merge only, never fixture construction (the
  /// workload used to be rebuilt per shard count inside the timed region,
  /// which buried the S-dependence under identical parse/alloc work).
  std::map<size_t, std::shared_ptr<ShardedStore>> stores;
  std::vector<CountingQuery> workload;

  std::shared_ptr<ShardedStore> sharded() const {
    return stores.at(kShards);
  }

  static ScalingFixture& Get() {
    static ScalingFixture* f = [] {
      auto* fx = new ScalingFixture();
      const BenchScale scale = ReadScale();
      const size_t rows = std::max<size_t>(160'000, scale.flights_rows / 2);
      fx->table = ScalingTable(rows, 6367);
      for (size_t shards : {size_t{1}, size_t{2}, kShards}) {
        fx->stores[shards] =
            std::move(ShardedStore::Build(*fx->table, ScalingOptions(shards)))
                .ValueOrDie();
      }
      Rng rng(6373);
      for (size_t i = 0; i < 64; ++i) {
        CountingQuery q(4);
        q.Where(0, AttrPredicate::Point(static_cast<Code>(rng.Uniform(24))));
        if (rng.NextBernoulli(0.5)) {
          q.Where(1, AttrPredicate::Point(static_cast<Code>(rng.Uniform(24))));
        }
        if (rng.NextBernoulli(0.3)) {
          Code lo = static_cast<Code>(rng.Uniform(12));
          q.Where(3, AttrPredicate::Range(lo, std::min<Code>(lo + 3, 11)));
        }
        fx->workload.push_back(q);
      }
      return fx;
    }();
    return *f;
  }
};

/// Best-of-3 build wall-clock: the builds are milliseconds-scale, so one
/// noisy CI scheduling hiccup must not decide the gate.
double BuildSeconds(const Table& table, size_t shards) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    auto built = ShardedStore::Build(table, ScalingOptions(shards));
    if (!built.ok()) {
      std::fprintf(stderr, "sharded build (S=%zu) failed: %s\n", shards,
                   built.status().ToString().c_str());
      std::exit(1);
    }
    benchmark::DoNotOptimize(built);
    const double elapsed = timer.ElapsedSeconds();
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Max relative error of the merged COUNT and SUM answers against the
/// additive per-shard reference, over the fixture workload.
struct MergeErr {
  double count = 0.0;
  double sum = 0.0;
};

MergeErr MeasureMergeError() {
  auto& f = ScalingFixture::Get();
  const ShardedStore& s = *f.sharded();
  std::vector<double> weights(f.table->domain(2).size());
  for (size_t v = 0; v < weights.size(); ++v) weights[v] = 1.0 + 0.5 * v;
  auto rel = [](double got, double want) {
    return std::abs(got - want) / (1.0 + std::abs(want));
  };
  MergeErr err;
  // Batched path on one side, serial per-shard accumulation on the other:
  // this covers the AnswerAll grid fan-out AND the merge order.
  auto batch = s.AnswerAll(f.workload);
  if (!batch.ok()) {
    std::fprintf(stderr, "AnswerAll failed: %s\n",
                 batch.status().ToString().c_str());
    std::exit(1);
  }
  for (size_t i = 0; i < f.workload.size(); ++i) {
    double ref_e = 0.0, ref_v = 0.0, ref_se = 0.0, ref_sv = 0.0;
    for (size_t k = 0; k < s.num_shards(); ++k) {
      auto cnt = s.shard_engine(k).Answer(f.workload[i]);
      auto sum = s.shard_engine(k).Answer(
          AggregateQuery::Sum(2, weights, f.workload[i]));
      if (!cnt.ok() || !sum.ok()) {
        std::fprintf(stderr, "per-shard reference failed\n");
        std::exit(1);
      }
      ref_e += cnt->expectation;
      ref_v += cnt->variance;
      ref_se += sum->estimate.expectation;
      ref_sv += sum->estimate.variance;
    }
    err.count = std::max(err.count, rel((*batch)[i].expectation, ref_e));
    err.count = std::max(err.count, rel((*batch)[i].variance, ref_v));
    auto merged_sum = s.Answer(AggregateQuery::Sum(2, weights, f.workload[i]));
    if (!merged_sum.ok()) {
      std::fprintf(stderr, "merged sum failed\n");
      std::exit(1);
    }
    err.sum = std::max(err.sum, rel(merged_sum->estimate.expectation, ref_se));
    err.sum = std::max(err.sum, rel(merged_sum->estimate.variance, ref_sv));
  }
  return err;
}

void BM_ShardedBuild(benchmark::State& state) {
  auto& f = ScalingFixture::Get();
  const size_t shards = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto built = ShardedStore::Build(*f.table, ScalingOptions(shards));
    benchmark::DoNotOptimize(built);
  }
  state.SetItemsProcessed(state.iterations() * f.table->num_rows());
}
BENCHMARK(BM_ShardedBuild)->Arg(1)->Arg(2)->Arg(kShards)
    ->Unit(benchmark::kMillisecond);

/// Merged COUNT latency vs. shard count over the ONE fixture workload:
/// with construction hoisted, the S = 1 -> kShards trend is pure fan-out
/// plus merge.
void BM_MergedAnswer(benchmark::State& state) {
  auto& f = ScalingFixture::Get();
  const auto& store = *f.stores.at(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    auto est = store.Answer(f.workload[i % f.workload.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergedAnswer)->Arg(1)->Arg(2)->Arg(kShards);

void BM_MergedAnswerAll(benchmark::State& state) {
  auto& f = ScalingFixture::Get();
  const auto& store = *f.stores.at(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto batch = store.AnswerAll(f.workload);
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(state.iterations() * f.workload.size());
}
BENCHMARK(BM_MergedAnswerAll)->Arg(1)->Arg(2)->Arg(kShards);

}  // namespace

int main(int argc, char** argv) {
  ApplyQuickFlag(&argc, argv);
  GateRows gate(&argc, argv);
  auto& f = ScalingFixture::Get();
  const unsigned cores = std::thread::hardware_concurrency();
  gate.Record("cores", cores);
  gate.Record("rows", f.table->num_rows());
  gate.Record("shards", kShards);

  const double s1_seconds = BuildSeconds(*f.table, 1);
  const double sharded_seconds = BuildSeconds(*f.table, kShards);
  gate.Record("build.s1_seconds", s1_seconds);
  if (cores > 1) {
    gate.Enforce("build.sharded_seconds", sharded_seconds, "<", s1_seconds);
  } else {
    gate.Record("build.sharded_seconds", sharded_seconds);
  }
  gate.Record("build.speedup", s1_seconds / std::max(sharded_seconds, 1e-12));

  const MergeErr err = MeasureMergeError();
  gate.Record("merge.queries", f.workload.size());
  gate.Enforce("merge.count_max_rel_err", err.count, "<=", 1e-9);
  gate.Enforce("merge.sum_max_rel_err", err.sum, "<=", 1e-9);
  if (!gate.Write()) return 1;
  return RunBenchmarks(argc, argv);
}
