// Indexed sample evaluation: row-group index vs. full scan, across
// selectivities — the latency half of the hybrid-routing story. The
// paper's samples win SELECTIVE queries (Figs. 5-6), which is exactly
// where a full O(sample rows) scan per consulted companion is pure
// waste; the row-group index (sampling/sample_index.h) answers those from
// the smallest matching groups instead.
//
// Before benchmarks run, a verification pass states the bars as gate
// rows: over randomized predicate mixes AND the four fixed workloads,
// indexed Count/Sum estimates and variances must be BITWISE equal to the
// scan path's (the index may never change an answer or a routing
// decision, only its latency); indexed evaluation must be FASTER than
// the scan on the selective workload and on the wide multi-group one;
// and broad's scan cutover may cost at most 1.25x the scan. Timings are
// medians of interleaved indexed/scan rounds (InterleavedMedianNs), so
// the ratio resists load bursts on a shared host. --gate_out
// FILE writes the rows for tools/check_perf_gate.py.

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

std::shared_ptr<Table> IndexBenchTable(size_t n, uint64_t seed) {
  const std::vector<uint32_t> sizes = {32, 32, 16, 16};
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
    row[0] = static_cast<Code>(rng.Uniform(32));
    row[1] = rng.NextBernoulli(0.8) ? row[0]
                                    : static_cast<Code>(rng.Uniform(32));
    row[2] = static_cast<Code>(rng.Uniform(16));
    row[3] = rng.NextBernoulli(0.6) ? (row[2] % 16)
                                    : static_cast<Code>(rng.Uniform(16));
    b.AppendEncodedRow(row);
  }
  return *b.Finish();
}

struct IndexFixture {
  std::shared_ptr<Table> table;
  WeightedSample indexed;  // carries the row-group index
  WeightedSample scan;     // the SAME rows/weights, index stripped
  std::unique_ptr<SampleEstimator> indexed_est;
  std::unique_ptr<SampleEstimator> scan_est;
  // Workloads by selectivity of the most selective predicate:
  std::vector<CountingQuery> selective;  // two point predicates, ~0.2%
  std::vector<CountingQuery> moderate;   // range plus a point: one group
  std::vector<CountingQuery> wide;       // 8-12 code range, 25-38%
  std::vector<CountingQuery> broad;      // near-full range: scan cutover

  static IndexFixture& Get() {
    static IndexFixture* f = [] {
      auto* fx = new IndexFixture();
      fx->table = IndexBenchTable(120'000, 2203);
      auto drawn = StratifiedSampler::Create(*fx->table, 0, 1, 0.1, 41);
      fx->indexed = std::move(drawn).ValueOrDie();
      fx->indexed.index = SampleIndex::Build(*fx->indexed.rows);
      fx->scan = fx->indexed;
      fx->scan.index = nullptr;
      fx->indexed_est = std::make_unique<SampleEstimator>(fx->indexed);
      fx->scan_est = std::make_unique<SampleEstimator>(fx->scan);

      for (Code v = 0; v < 32; ++v) {
        // Selective: one rare (0, 1) stratum — the paper's
        // sample-wins territory and the index's sweet spot.
        CountingQuery s(4);
        s.Where(0, AttrPredicate::Point(v))
            .Where(1, AttrPredicate::Point((v + 7) % 32));
        fx->selective.push_back(s);
        // Moderate: a quarter of attribute 0's domain plus a point on
        // attribute 2, whose single group is the smaller plan.
        CountingQuery m(4);
        m.Where(0, AttrPredicate::Range(v % 24, v % 24 + 7))
            .Where(2, AttrPredicate::Point(v % 16));
        fx->moderate.push_back(m);
        // Wide: 8-12 of attribute 0's 32 codes and nothing else — every
        // plan spans several groups, below the scan cutover (the shape
        // of a wide one-attribute SUM filter).
        const Code width = 8 + v % 5;
        const Code lo = (3 * v) % (33 - width);
        CountingQuery w(4);
        w.Where(0, AttrPredicate::Range(lo, lo + width - 1));
        fx->wide.push_back(w);
        // Broad: nearly the whole domain — the estimator's cutover
        // hands this back to the scan path, so indexed latency must
        // match scan latency here, not regress it.
        CountingQuery b(4);
        b.Where(0, AttrPredicate::Range(0, 29));
        fx->broad.push_back(b);
      }
      return fx;
    }();
    return *f;
  }
};

/// One Count pass of `est` over `workload`, for InterleavedMedianNs.
std::function<void()> CountPass(const SampleEstimator& est,
                                const std::vector<CountingQuery>& workload) {
  return [&est, &workload] {
    for (const auto& q : workload) {
      auto e = est.Count(q);
      benchmark::DoNotOptimize(e);
    }
  };
}

/// Bitwise identity of indexed vs. scan Count AND Sum over a workload.
bool BitwiseEqual(const std::vector<CountingQuery>& workload) {
  auto& f = IndexFixture::Get();
  std::vector<double> values(f.table->domain(2).size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = 1.0 + 0.25 * i;
  for (const auto& q : workload) {
    const QueryEstimate a = f.indexed_est->Count(q);
    const QueryEstimate b = f.scan_est->Count(q);
    if (a.expectation != b.expectation || a.variance != b.variance) {
      return false;
    }
    const QueryEstimate sa = f.indexed_est->Sum(2, values, q);
    const QueryEstimate sb = f.scan_est->Sum(2, values, q);
    if (sa.expectation != sb.expectation || sa.variance != sb.variance) {
      return false;
    }
  }
  return true;
}

/// Randomized predicate mixes (point / range / set / ANY), the same shape
/// the unit tests fuzz — run here too so the gate covers the exact
/// binary CI measures.
std::vector<CountingQuery> FuzzWorkload(size_t count, uint64_t seed) {
  auto& f = IndexFixture::Get();
  Rng rng(seed);
  std::vector<CountingQuery> out;
  for (size_t i = 0; i < count; ++i) {
    CountingQuery q(4);
    for (AttrId a = 0; a < 4; ++a) {
      const uint32_t dom = f.table->domain(a).size();
      switch (rng.Uniform(5)) {
        case 0:
          q.Where(a, AttrPredicate::Point(static_cast<Code>(rng.Uniform(dom))));
          break;
        case 1: {
          Code lo = static_cast<Code>(rng.Uniform(dom));
          Code hi = static_cast<Code>(rng.Uniform(dom));
          if (hi < lo) std::swap(lo, hi);
          q.Where(a, AttrPredicate::Range(lo, hi));
          break;
        }
        case 2: {
          std::vector<Code> codes;
          for (size_t k = 0; k < 1 + rng.Uniform(3); ++k) {
            codes.push_back(static_cast<Code>(rng.Uniform(dom)));
          }
          q.Where(a, AttrPredicate::InSet(std::move(codes)));
          break;
        }
        default:
          break;
      }
    }
    out.push_back(q);
  }
  return out;
}

void RunWorkload(benchmark::State& state, const SampleEstimator& est,
                 const std::vector<CountingQuery>& workload) {
  size_t i = 0;
  for (auto _ : state) {
    auto e = est.Count(workload[i % workload.size()]);
    benchmark::DoNotOptimize(e);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_IndexedCountSelective(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.indexed_est, f.selective);
}
BENCHMARK(BM_IndexedCountSelective);

void BM_ScanCountSelective(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.scan_est, f.selective);
}
BENCHMARK(BM_ScanCountSelective);

void BM_IndexedCountModerate(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.indexed_est, f.moderate);
}
BENCHMARK(BM_IndexedCountModerate);

void BM_ScanCountModerate(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.scan_est, f.moderate);
}
BENCHMARK(BM_ScanCountModerate);

void BM_IndexedCountWide(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.indexed_est, f.wide);
}
BENCHMARK(BM_IndexedCountWide);

void BM_ScanCountWide(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.scan_est, f.wide);
}
BENCHMARK(BM_ScanCountWide);

void BM_IndexedCountBroad(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.indexed_est, f.broad);
}
BENCHMARK(BM_IndexedCountBroad);

void BM_ScanCountBroad(benchmark::State& state) {
  auto& f = IndexFixture::Get();
  RunWorkload(state, *f.scan_est, f.broad);
}
BENCHMARK(BM_ScanCountBroad);

}  // namespace

int main(int argc, char** argv) {
  ApplyQuickFlag(&argc, argv);
  GateRows gate(&argc, argv);
  auto& f = IndexFixture::Get();
  gate.Record("sample_rows", f.indexed.size());
  const bool bitwise = BitwiseEqual(f.selective) && BitwiseEqual(f.moderate) &&
                       BitwiseEqual(f.wide) && BitwiseEqual(f.broad) &&
                       BitwiseEqual(FuzzWorkload(500, 4099));
  gate.Enforce("bitwise_identical", bitwise ? 1 : 0, "==", 1);

  // must_win: the index has to beat the scan there, or it has not earned
  // its code.
  struct {
    const char* name;
    const std::vector<CountingQuery>* workload;
    bool must_win;
    double indexed_ns, scan_ns;
  } rows[] = {
      {"selective", &f.selective, true, 0, 0},
      {"moderate", &f.moderate, false, 0, 0},
      {"wide", &f.wide, true, 0, 0},
      {"broad", &f.broad, false, 0, 0},
  };
  for (auto& r : rows) {
    const std::string name = r.name;
    const auto indexed = CountPass(*f.indexed_est, *r.workload);
    const auto scan = CountPass(*f.scan_est, *r.workload);
    const auto [indexed_ns, scan_ns] = InterleavedMedianNs(indexed, scan);
    r.indexed_ns = indexed_ns / r.workload->size();
    r.scan_ns = scan_ns / r.workload->size();
    gate.Record(name + ".queries", r.workload->size());
    if (r.must_win) {
      gate.Enforce(name + ".indexed_ns", r.indexed_ns, "<", r.scan_ns);
    } else {
      gate.Record(name + ".indexed_ns", r.indexed_ns);
    }
    gate.Record(name + ".scan_ns", r.scan_ns);
    gate.Record(name + ".speedup", r.scan_ns / r.indexed_ns);
  }
  // Broad hands every query back to the scan path: the cutover itself
  // must be noise. Both sides are medians of the same interleaved rounds.
  const auto& broad = rows[3];
  gate.Enforce("broad.indexed_over_scan",
               broad.indexed_ns / std::max(broad.scan_ns, 1.0), "<=", 1.25);
  if (!gate.Write()) return 1;
  return RunBenchmarks(argc, argv);
}
