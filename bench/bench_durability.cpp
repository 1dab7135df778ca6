// Durability overhead: what crash safety costs on the serving path.
//
// PR 6 makes every persisted artifact checksummed (CRC32C footers), store
// publication atomic (stage + rename), and ingest WAL-backed. The deal is
// that durability must be (nearly) free where it matters:
//   * store OPEN with checksum verification ON must stay within 5% of the
//     unverified open (verification is one streaming CRC per file, done
//     while the bytes are already hot) — the one enforced gate row;
//   * save wall time and WAL append throughput (synced and unsynced) are
//     recorded rows for the trajectory — both are fsync-bound, and fsync
//     latency is the machine's, not the code's.
// --gate_out FILE writes the rows for tools/check_perf_gate.py.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

std::shared_ptr<Table> DurabilityTable(size_t n, uint64_t seed) {
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

StoreOptions DurabilityStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 120;
  opts.summary.solver.max_iterations = 40;
  opts.num_stratified_samples = 1;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.02;
  return opts;
}

struct DurabilityFixture {
  std::shared_ptr<Table> table;
  std::shared_ptr<SourceStore> store;
  std::string dir;

  static DurabilityFixture& Get() {
    static DurabilityFixture* f = [] {
      auto* fx = new DurabilityFixture();
      const BenchScale scale = ReadScale();
      const size_t rows = std::max<size_t>(80'000, scale.flights_rows / 4);
      fx->table = DurabilityTable(rows, 7717);
      fx->store =
          std::move(SourceStore::Build(*fx->table, DurabilityStoreOptions()))
              .ValueOrDie();
      fx->dir = (std::filesystem::temp_directory_path() /
                 "entropydb_bench_durability_store")
                    .string();
      std::filesystem::remove_all(fx->dir);
      if (!fx->store->Save(fx->dir).ok()) {
        std::fprintf(stderr, "fixture save failed\n");
        std::exit(1);
      }
      return fx;
    }();
    return *f;
  }
};

/// Best-of-N wall clock of `fn` (milliseconds-scale operations; one noisy
/// CI scheduling hiccup must not decide the gate).
template <typename Fn>
double BestOf(int reps, Fn fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    fn();
    const double elapsed = timer.ElapsedSeconds();
    if (rep == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

double OpenSeconds(bool verify) {
  auto& f = DurabilityFixture::Get();
  SummaryOptions opts;
  opts.verify_checksums = verify;
  return BestOf(7, [&] {
    auto loaded = SourceStore::Load(f.dir, opts);
    if (!loaded.ok()) {
      std::fprintf(stderr, "store open failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    benchmark::DoNotOptimize(loaded);
  });
}

double SaveSeconds() {
  auto& f = DurabilityFixture::Get();
  return BestOf(3, [&] {
    // Atomic re-publication over the existing directory — the steady-state
    // save path (stage, per-file sync, dir sync, rename exchange).
    if (!f.store->Save(f.dir).ok()) {
      std::fprintf(stderr, "store save failed\n");
      std::exit(1);
    }
  });
}

struct WalThroughput {
  size_t records = 0;
  size_t bytes_per_record = 0;
  double synced_per_sec = 0.0;
  double unsynced_per_sec = 0.0;
};

WalThroughput MeasureWal() {
  WalThroughput t;
  t.bytes_per_record = 1024;
  const std::string payload(t.bytes_per_record, 'r');
  const std::string path = (std::filesystem::temp_directory_path() /
                            "entropydb_bench_durability.wal")
                               .string();
  auto run = [&](size_t records, bool sync_each) -> double {
    std::filesystem::remove(path);
    auto writer = WalWriter::Open(Env::Default(), path);
    if (!writer.ok()) {
      std::fprintf(stderr, "wal open failed\n");
      std::exit(1);
    }
    Timer timer;
    for (size_t i = 0; i < records; ++i) {
      if (!(*writer)->AddRecord(payload).ok() ||
          (sync_each && !(*writer)->Sync().ok())) {
        std::fprintf(stderr, "wal append failed\n");
        std::exit(1);
      }
    }
    if (!(*writer)->Sync().ok() || !(*writer)->Close().ok()) {
      std::fprintf(stderr, "wal close failed\n");
      std::exit(1);
    }
    const double elapsed = timer.ElapsedSeconds();
    std::filesystem::remove(path);
    return records / std::max(elapsed, 1e-12);
  };
  // Synced appends are fsync-bound (the per-batch ingest cost); the
  // unsynced run isolates framing + buffered-write overhead.
  t.records = 128;
  t.synced_per_sec = run(t.records, true);
  t.unsynced_per_sec = run(4096, false);
  return t;
}

void BM_StoreOpenVerified(benchmark::State& state) {
  auto& f = DurabilityFixture::Get();
  for (auto _ : state) {
    auto loaded = SourceStore::Load(f.dir);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreOpenVerified)->Unit(benchmark::kMillisecond);

void BM_StoreOpenUnverified(benchmark::State& state) {
  auto& f = DurabilityFixture::Get();
  SummaryOptions opts;
  opts.verify_checksums = false;
  for (auto _ : state) {
    auto loaded = SourceStore::Load(f.dir, opts);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreOpenUnverified)->Unit(benchmark::kMillisecond);

void BM_AtomicSave(benchmark::State& state) {
  auto& f = DurabilityFixture::Get();
  for (auto _ : state) {
    Status s = f.store->Save(f.dir);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AtomicSave)->Unit(benchmark::kMillisecond);

void BM_WalAppendUnsynced(benchmark::State& state) {
  const std::string payload(1024, 'r');
  const std::string path = (std::filesystem::temp_directory_path() /
                            "entropydb_bench_durability_bm.wal")
                               .string();
  std::filesystem::remove(path);
  auto writer = std::move(WalWriter::Open(Env::Default(), path)).ValueOrDie();
  for (auto _ : state) {
    Status s = writer->AddRecord(payload);
    benchmark::DoNotOptimize(s);
  }
  writer->Close().ok();
  std::filesystem::remove(path);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppendUnsynced);

}  // namespace

int main(int argc, char** argv) {
  ApplyQuickFlag(&argc, argv);
  GateRows gate(&argc, argv);
  auto& f = DurabilityFixture::Get();
  gate.Record("rows", f.table->num_rows());
  gate.Record("save_seconds", SaveSeconds());
  const double open_verified = OpenSeconds(true);
  const double open_unverified = OpenSeconds(false);
  gate.Record("open.verified_seconds", open_verified);
  gate.Record("open.unverified_seconds", open_unverified);
  gate.Enforce("open.overhead_ratio",
               open_verified / std::max(open_unverified, 1e-12), "<=", 1.05);
  const WalThroughput wal = MeasureWal();
  gate.Record("wal.synced_records_per_sec", wal.synced_per_sec);
  gate.Record("wal.unsynced_records_per_sec", wal.unsynced_per_sec);
  gate.Record("wal.bytes_per_record", wal.bytes_per_record);
  if (!gate.Write()) return 1;
  return RunBenchmarks(argc, argv);
}
