// Zone-map shard pruning: pruned vs. full fan-out latency at S = 16 on
// selective / moderate / broad workloads — the PR 7 claim that a
// selective query's cost tracks the shards it can MATCH, not the shard
// count. The store is attribute-partitioned (each shard owns a contiguous
// slice of attribute 0's domain), so a point constraint on the partition
// attribute rules out 15 of 16 shards, a half-domain range about half,
// and a query that never touches attribute 0 prunes nothing (the zone-map
// consultation itself must then be noise).
//
// Before benchmarks run, a verification pass states the claims as gate
// rows:
//   * pruned answers (COUNT and SUM, estimates AND variances) must be
//     BITWISE identical to the full fan-out with pruning disabled — a
//     pruned-out shard contributes an exact {0.0, 0.0}, so skipping it
//     cannot move the merge by an ulp,
//   * the pruned selective workload must beat the full fan-out wall-clock
//     (this holds on any core count: pruning removes work instead of
//     spreading it), and
//   * on the broad workload, where nothing prunes, pruning may cost at
//     most 1.25x the full fan-out (the zone-map consultation is noise).
// --gate_out FILE writes the rows for tools/check_perf_gate.py.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

constexpr size_t kShards = 16;
constexpr uint32_t kRouteDomain = 64;  // attribute 0: 4 codes per shard

std::shared_ptr<Table> PruningTable(size_t n, uint64_t seed) {
  const std::vector<uint32_t> sizes = {kRouteDomain, 24, 16, 12};
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
    row[0] = static_cast<Code>(rng.Uniform(kRouteDomain));
    row[1] = rng.NextBernoulli(0.7) ? static_cast<Code>(row[0] % 24)
                                    : static_cast<Code>(rng.Uniform(24));
    row[2] = static_cast<Code>(rng.Uniform(16));
    row[3] = rng.NextBernoulli(0.6) ? (row[2] % 12)
                                    : static_cast<Code>(rng.Uniform(12));
    b.AppendEncodedRow(row);
  }
  return *b.Finish();
}

ShardedOptions PruningOptions() {
  ShardedOptions opts;
  opts.num_shards = kShards;
  opts.scheme = PartitionScheme::kAttribute;
  opts.partition_attr = 0;
  opts.store.num_summaries = 2;
  opts.store.total_budget = 80;
  opts.store.summary.solver.max_iterations = 40;
  opts.store.num_stratified_samples = 1;
  opts.store.uniform_sample = true;
  opts.store.sample_fraction = 0.05;
  return opts;
}

struct PruningFixture {
  std::shared_ptr<Table> table;
  std::shared_ptr<ShardedStore> sharded;
  // Queries are built ONCE here and shared by the pruned and full passes:
  // the timed regions below measure fan-out, never query construction.
  std::vector<CountingQuery> selective;  // point on the partition attribute
  std::vector<CountingQuery> moderate;   // ~half-domain partition-attr range
  std::vector<CountingQuery> broad;      // partition attribute unconstrained

  static PruningFixture& Get() {
    static PruningFixture* f = [] {
      auto* fx = new PruningFixture();
      const BenchScale scale = ReadScale();
      const size_t rows = std::max<size_t>(120'000, scale.flights_rows / 4);
      fx->table = PruningTable(rows, 7211);
      fx->sharded =
          std::move(ShardedStore::Build(*fx->table, PruningOptions()))
              .ValueOrDie();
      Rng rng(7213);
      for (size_t i = 0; i < 64; ++i) {
        CountingQuery sel(4);
        sel.Where(0, AttrPredicate::Point(
                         static_cast<Code>(rng.Uniform(kRouteDomain))));
        if (rng.NextBernoulli(0.5)) {
          sel.Where(2,
                    AttrPredicate::Point(static_cast<Code>(rng.Uniform(16))));
        }
        fx->selective.push_back(sel);

        CountingQuery mod(4);
        const Code lo = static_cast<Code>(rng.Uniform(kRouteDomain / 2));
        mod.Where(0, AttrPredicate::Range(
                         lo, static_cast<Code>(lo + kRouteDomain / 2 - 1)));
        fx->moderate.push_back(mod);

        CountingQuery brd(4);
        brd.Where(2, AttrPredicate::Point(static_cast<Code>(rng.Uniform(16))));
        if (rng.NextBernoulli(0.5)) {
          Code rlo = static_cast<Code>(rng.Uniform(12));
          brd.Where(3, AttrPredicate::Range(rlo, std::min<Code>(rlo + 3, 11)));
        }
        fx->broad.push_back(brd);
      }
      return fx;
    }();
    return *f;
  }

  const std::vector<CountingQuery>& workload(size_t which) const {
    return which == 0 ? selective : which == 1 ? moderate : broad;
  }
};

const char* kWorkloadNames[] = {"selective", "moderate", "broad"};

/// Bitwise pruned-vs-full comparison over every workload (COUNT and SUM,
/// expectations and variances). Restores pruning to ON.
bool VerifyBitwiseIdentical() {
  auto& f = PruningFixture::Get();
  std::vector<double> weights(f.table->domain(2).size());
  for (size_t v = 0; v < weights.size(); ++v) weights[v] = 1.0 + 0.5 * v;
  bool identical = true;
  for (size_t w = 0; w < 3 && identical; ++w) {
    for (const CountingQuery& q : f.workload(w)) {
      f.sharded->set_zone_map_pruning(true);
      auto cnt_on = f.sharded->Answer(q);
      auto sum_on = f.sharded->Answer(AggregateQuery::Sum(2, weights, q));
      f.sharded->set_zone_map_pruning(false);
      auto cnt_off = f.sharded->Answer(q);
      auto sum_off = f.sharded->Answer(AggregateQuery::Sum(2, weights, q));
      if (!cnt_on.ok() || !sum_on.ok() || !cnt_off.ok() || !sum_off.ok()) {
        std::fprintf(stderr, "answer failed during verification\n");
        std::exit(1);
      }
      if (cnt_on->expectation != cnt_off->expectation ||
          cnt_on->variance != cnt_off->variance ||
          sum_on->estimate.expectation != sum_off->estimate.expectation ||
          sum_on->estimate.variance != sum_off->estimate.variance) {
        std::fprintf(stderr,
                     "BITWISE MISMATCH on %s workload: pruned COUNT "
                     "{%.17g, %.17g} vs full {%.17g, %.17g}\n",
                     kWorkloadNames[w], cnt_on->expectation,
                     cnt_on->variance, cnt_off->expectation,
                     cnt_off->variance);
        identical = false;
        break;
      }
    }
  }
  f.sharded->set_zone_map_pruning(true);
  return identical;
}

/// Best-of-3 mean ns/query over a workload with pruning on or off.
double MeasureNsPerQuery(const std::vector<CountingQuery>& workload,
                         bool prune) {
  auto& f = PruningFixture::Get();
  f.sharded->set_zone_map_pruning(prune);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    for (const CountingQuery& q : workload) {
      auto est = f.sharded->Answer(q);
      benchmark::DoNotOptimize(est);
    }
    const double ns = timer.ElapsedSeconds() * 1e9 / workload.size();
    if (rep == 0 || ns < best) best = ns;
  }
  f.sharded->set_zone_map_pruning(true);
  return best;
}

/// Mean shards pruned per query on a workload (pruning on).
double AvgPrunedShards(const std::vector<CountingQuery>& workload) {
  auto& f = PruningFixture::Get();
  f.sharded->set_zone_map_pruning(true);
  size_t pruned = 0;
  for (const CountingQuery& q : workload) {
    std::vector<RouteDecision> decs;
    auto est = f.sharded->Answer(q, &decs);
    benchmark::DoNotOptimize(est);
    for (const RouteDecision& d : decs) pruned += d.pruned ? 1 : 0;
  }
  return static_cast<double>(pruned) / workload.size();
}

void BM_MergedCount(benchmark::State& state) {
  auto& f = PruningFixture::Get();
  const auto& workload = f.workload(static_cast<size_t>(state.range(0)));
  f.sharded->set_zone_map_pruning(state.range(1) != 0);
  size_t i = 0;
  for (auto _ : state) {
    auto est = f.sharded->Answer(workload[i % workload.size()]);
    benchmark::DoNotOptimize(est);
    ++i;
  }
  f.sharded->set_zone_map_pruning(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergedCount)
    ->ArgNames({"workload", "prune"})
    ->Args({0, 1})->Args({0, 0})
    ->Args({1, 1})->Args({1, 0})
    ->Args({2, 1})->Args({2, 0});

}  // namespace

int main(int argc, char** argv) {
  ApplyQuickFlag(&argc, argv);
  GateRows gate(&argc, argv);
  auto& f = PruningFixture::Get();
  gate.Record("shards", kShards);
  gate.Record("rows", f.table->num_rows());
  gate.Enforce("identical", VerifyBitwiseIdentical() ? 1 : 0, "==", 1);
  // Pruning removes work on the selective workload (w = 0), so its win
  // holds on any core count; on broad (w = 2) nothing prunes, so the
  // zone-map consultation itself must be noise.
  for (size_t w = 0; w < 3; ++w) {
    const std::string name = kWorkloadNames[w];
    const double pruned_ns = MeasureNsPerQuery(f.workload(w), true);
    const double full_ns = MeasureNsPerQuery(f.workload(w), false);
    if (w == 0) {
      gate.Enforce(name + ".pruned_ns", pruned_ns, "<", full_ns);
    } else {
      gate.Record(name + ".pruned_ns", pruned_ns);
    }
    gate.Record(name + ".full_ns", full_ns);
    gate.Record(name + ".speedup", full_ns / std::max(pruned_ns, 1.0));
    gate.Record(name + ".avg_pruned_shards", AvgPrunedShards(f.workload(w)));
    if (w == 2) {
      gate.Enforce(name + ".pruned_over_full",
                   pruned_ns / std::max(full_ns, 1.0), "<=", 1.25);
    }
  }
  if (!gate.Write()) return 1;
  return RunBenchmarks(argc, argv);
}
