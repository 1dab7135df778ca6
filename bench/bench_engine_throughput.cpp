// Multi-threaded query throughput through the engine layer.
//
// The PR-2 claims this bench measures:
//  - concurrent queries on ONE summary scale with threads through the
//    lock-free workspace pool (the seed serialized them behind a mutex —
//    BM_MutexSerializedBaseline reproduces that design for comparison);
//  - store-routed answering adds only routing overhead on top of the
//    chosen summary's own latency, and batched AnswerAll fans a workload
//    across the pool.
//
// Run with --benchmark_filter as usual; --quick shrinks the workload for
// CI. Before benchmarks run, a verification pass asserts the acceptance
// bar that store-routed answers match a per-summary reference answerer to
// <= 1e-12 relative error; --accuracy_out FILE additionally writes the
// result as JSON for the CI artifact.
//
// Thread counts above the host's cores still measure (oversubscribed);
// the 1 -> 8 scaling claim is meaningful on >= 8-core hardware.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

std::vector<CountingQuery> MakeWorkload(const Table& table) {
  FlightsPairs p = ResolveFlightsPairs(table);
  std::vector<CountingQuery> qs;
  for (Code o = 0; o < 6; ++o) {
    CountingQuery q(5);
    q.Where(p.origin, AttrPredicate::Point(o));
    qs.push_back(q);
    CountingQuery r(5);
    r.Where(p.origin, AttrPredicate::Point(o))
        .Where(p.distance, AttrPredicate::Range(10, 40));
    qs.push_back(r);
    CountingQuery s(5);
    s.Where(p.dest, AttrPredicate::Point(o))
        .Where(p.distance, AttrPredicate::Range(5, 60));
    qs.push_back(s);
    CountingQuery t(5);
    t.Where(p.time, AttrPredicate::Range(o, o + 20))
        .Where(p.distance, AttrPredicate::Range(0, 50));
    qs.push_back(t);
  }
  return qs;
}

struct ThroughputFixture {
  std::shared_ptr<Table> table;
  std::shared_ptr<EntropySummary> summary;
  std::shared_ptr<SourceStore> store;
  std::shared_ptr<EntropyEngine> engine;
  std::vector<CountingQuery> workload;

  static ThroughputFixture& Get() {
    static ThroughputFixture* f = [] {
      auto* fx = new ThroughputFixture();
      BenchScale scale = ReadScale();
      FlightsConfig cfg;
      cfg.num_rows = scale.flights_rows;
      cfg.seed = 42;
      fx->table = *FlightsGenerator::Generate(cfg);
      auto summaries = BuildFlightsSummaries(*fx->table, scale);
      fx->summary = summaries->ent123;
      StoreOptions sopts;
      sopts.num_summaries = 3;
      sopts.total_budget = 3 * scale.bs_two_pair;
      fx->store = *SourceStore::Build(*fx->table, sopts);
      fx->engine = EntropyEngine::FromStore(fx->store);
      fx->workload = MakeWorkload(*fx->table);
      return fx;
    }();
    return *f;
  }
};

/// Concurrent counting queries on ONE summary through the workspace pool.
/// items_per_second is the cross-thread queries/sec figure the acceptance
/// criterion tracks from 1 to 8 threads.
void BM_SingleSummaryConcurrent(benchmark::State& state) {
  auto& f = ThroughputFixture::Get();
  const size_t stride = static_cast<size_t>(state.thread_index()) * 7 + 1;
  size_t i = 0;
  for (auto _ : state) {
    auto est = f.summary->Answer(f.workload[i % f.workload.size()]);
    benchmark::DoNotOptimize(est);
    i += stride;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleSummaryConcurrent)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// The seed design, reproduced: every query on the summary serializes
/// behind one mutex. Scaling stays ~1x however many threads pile on.
void BM_MutexSerializedBaseline(benchmark::State& state) {
  auto& f = ThroughputFixture::Get();
  static std::mutex mu;
  const size_t stride = static_cast<size_t>(state.thread_index()) * 7 + 1;
  size_t i = 0;
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(mu);
    auto est = f.summary->Answer(f.workload[i % f.workload.size()]);
    benchmark::DoNotOptimize(est);
    i += stride;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexSerializedBaseline)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// Store-routed answering: route + answer from the covering summary.
void BM_StoreRoutedConcurrent(benchmark::State& state) {
  auto& f = ThroughputFixture::Get();
  const size_t stride = static_cast<size_t>(state.thread_index()) * 7 + 1;
  size_t i = 0;
  for (auto _ : state) {
    auto est = f.engine->Answer(f.workload[i % f.workload.size()]);
    benchmark::DoNotOptimize(est);
    i += stride;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreRoutedConcurrent)
    ->ThreadRange(1, 8)
    ->UseRealTime();

/// Whole-workload batch through AnswerAll (fans across the shared pool).
void BM_StoreBatchAnswerAll(benchmark::State& state) {
  auto& f = ThroughputFixture::Get();
  for (auto _ : state) {
    auto ests = f.engine->AnswerAll(f.workload);
    benchmark::DoNotOptimize(ests);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.workload.size()));
}
BENCHMARK(BM_StoreBatchAnswerAll);

/// Routed answers vs. a dedicated per-summary reference answerer; returns
/// the max relative error over the workload (acceptance bar: <= 1e-12).
double VerifyRoutedAccuracy(size_t* checked) {
  auto& f = ThroughputFixture::Get();
  QueryRouter router(f.store);
  // One reference answerer per store entry (each pays its own warm-up
  // once), not one per query.
  std::vector<std::unique_ptr<QueryAnswerer>> references;
  for (size_t k = 0; k < f.store->size(); ++k) {
    const EntropySummary& s = f.store->summary(k);
    references.push_back(std::make_unique<QueryAnswerer>(
        s.registry(), s.polynomial(), s.state()));
  }
  double max_rel = 0.0;
  *checked = 0;
  for (const auto& q : f.workload) {
    RouteDecision dec;
    auto routed = router.Answer(q, &dec);
    if (!routed.ok()) return 1.0;
    auto ref = references[dec.index]->Answer(q);
    if (!ref.ok()) return 1.0;
    const double denom = std::max(1.0, std::abs(ref->expectation));
    max_rel = std::max(max_rel,
                       std::abs(routed->expectation - ref->expectation) / denom);
    ++(*checked);
  }
  return max_rel;
}

}  // namespace

int main(int argc, char** argv) {
  ::entropydb::bench::ApplyQuickFlag(&argc, argv);

  // Consume --accuracy_out FILE before google-benchmark sees argv.
  std::string accuracy_out;
  int out_i = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--accuracy_out") == 0 && i + 1 < argc) {
      accuracy_out = argv[++i];
    } else {
      argv[out_i++] = argv[i];
    }
  }
  argc = out_i;

  size_t checked = 0;
  const double max_rel = VerifyRoutedAccuracy(&checked);
  std::printf("routed-vs-reference accuracy: max relative error %.3g over "
              "%zu queries (bar: 1e-12) — %s\n",
              max_rel, checked, max_rel <= 1e-12 ? "OK" : "FAIL");
  if (!accuracy_out.empty()) {
    FILE* out = std::fopen(accuracy_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write --accuracy_out file: %s\n",
                   accuracy_out.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n  \"max_relative_error\": %.6g,\n"
                 "  \"queries_checked\": %zu,\n  \"bar\": 1e-12,\n"
                 "  \"pass\": %s\n}\n",
                 max_rel, checked, max_rel <= 1e-12 ? "true" : "false");
    // A truncated gate file (full disk surfaces at flush/close) must fail
    // HERE, not as a JSON parse error in the gate step downstream.
    if (std::ferror(out) != 0 || std::fclose(out) != 0) {
      std::fprintf(stderr, "write failure on --accuracy_out file: %s\n",
                   accuracy_out.c_str());
      return 1;
    }
  }
  if (max_rel > 1e-12) return 1;

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
