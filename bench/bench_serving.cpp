// Serving (server/server.h): an in-process entropydb_serve over a
// versioned root, measured through real sockets with WireClient — the
// numbers an operator sees, not engine-only microbenchmarks. Measured:
//   * end-to-end QUERY-frame latency, uncached (cache disabled) vs
//     cached (same query, same version), with p50/p99 over the uncached
//     samples. The store is deliberately big enough (32 shards, paper-
//     scale statistic budgets, 100k+ rows) that an uncached answer costs
//     hundreds of microseconds of model evaluation: the single-query
//     fan-out is sequential over shards, so the measurement does not
//     depend on core count, and the socket round trip under it is noise
//     rather than the signal,
//   * QPS with 1 / 4 / 8 concurrent client connections, and
//   * serial QUERY frames vs one BATCH frame per 32 queries at 8
//     clients: the session thread answers a frame's cache misses with one
//     AnswerAll, which fans them across the pool, and one frame replaces
//     32 round trips.
//
// Before benchmarks run, a verification pass states the claims as gate
// rows:
//   * a result-cache hit must be >= 10x faster than the uncached
//     query (a hit skips maxent evaluation entirely, so the bar is
//     core-count independent), and
//   * batched throughput must be >= serial throughput at 8 clients
//     (round-trip amortization, also core-count independent).
// --gate_out FILE writes the rows for tools/check_perf_gate.py.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"

using namespace entropydb;
using namespace entropydb::bench;

namespace {

namespace fs = std::filesystem;

// Domains big enough that answering a query means real maxent work (the
// cache bar compares model evaluations against a map probe — on a tiny
// model the socket round trip would dominate both sides). Each shard
// holds three one-pair summaries (num_summaries = 3); a single-attribute
// range covers no pair, so each shard evaluates only its widest summary.
// The pool's broad ranges pin no attribute to one code, so every such
// evaluation walks all of that summary's groups: the pinned-code stab
// lists (maxent/polynomial.h) do not move the cache bar. The statistic
// count only materializes when shards OBSERVE that many distinct cells,
// hence the 100k-row floor on the fixture.
constexpr uint32_t kD0 = 96;
constexpr uint32_t kD1 = 64;
constexpr uint32_t kD2 = 24;
constexpr size_t kShards = 32;
constexpr size_t kBatchFrame = 32;  // queries per BATCH frame

std::shared_ptr<Table> ServeTable(size_t n, uint64_t seed) {
  const std::vector<uint32_t> sizes = {kD0, kD1, kD2};
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
  std::vector<Code> row(3);
  for (size_t r = 0; r < n; ++r) {
    row[0] = static_cast<Code>(rng.Uniform(kD0));
    row[1] = rng.NextBernoulli(0.6) ? static_cast<Code>(row[0] % kD1)
                                    : static_cast<Code>(rng.Uniform(kD1));
    row[2] = static_cast<Code>(rng.Uniform(kD2));
    b.AppendEncodedRow(row);
  }
  return *b.Finish();
}

StoreOptions ServeStoreOptions() {
  StoreOptions opts;
  // Paper-scale statistic budget; few solver iterations — this bench
  // measures serving latency, and evaluation cost depends on the model's
  // factor count, not on how converged its weights are.
  opts.num_summaries = 3;
  opts.total_budget = 9000;
  opts.summary.solver.max_iterations = 40;
  return opts;
}

struct ServingFixture {
  std::string dir;
  size_t rows = 0;
  size_t requests = 0;  // per-measurement request count
  /// Two servers over the SAME published v1: the serving path is
  /// identical except for the result cache, so uncached-vs-cached is a
  /// clean A/B through real sockets.
  std::unique_ptr<QueryServer> cached;
  std::unique_ptr<QueryServer> uncached;
  std::vector<std::string> pool;  // distinct query texts

  static ServingFixture& Get() {
    static ServingFixture* f = [] {
      auto* fx = new ServingFixture();
      const BenchScale scale = ReadScale();
      fx->rows = std::max<size_t>(100'000, scale.flights_rows / 2);
      fx->requests = std::max<size_t>(64, scale.flights_rows / 1'000);
      fx->dir =
          (fs::temp_directory_path() / "entropydb_bench_serving").string();
      fs::remove_all(fx->dir);

      ShardedOptions sopts;
      sopts.num_shards = kShards;
      sopts.store = ServeStoreOptions();
      auto built = ShardedStore::Build(*ServeTable(fx->rows, 9311), sopts);
      auto vs = VersionSet::Open(fx->dir, Env::Default());
      if (!built.ok() || !vs.ok()) {
        std::fprintf(stderr, "fixture build failed\n");
        std::exit(1);
      }
      const uint64_t id = (*vs)->BeginVersion();
      if (!(*built)->Save((*vs)->VersionDir(id)).ok() ||
          !(*vs)->Publish(id).ok()) {
        std::fprintf(stderr, "fixture publish failed\n");
        std::exit(1);
      }

      QueryServer::Options copts;
      copts.path = fx->dir;
      copts.summary = ServeStoreOptions().summary;
      auto cached = QueryServer::Start(copts);
      QueryServer::Options uopts = copts;
      uopts.cache_capacity = 0;
      auto uncached = QueryServer::Start(uopts);
      if (!cached.ok() || !uncached.ok()) {
        std::fprintf(stderr, "server start failed\n");
        std::exit(1);
      }
      fx->cached = std::move(*cached);
      fx->uncached = std::move(*uncached);

      // Broad range queries: evaluation visits every matched cell in
      // every shard model, so these carry the real serving cost a fresh
      // publish pays before its cache warms.
      for (uint32_t hi = kD0 / 2; hi < kD0; ++hi) {
        fx->pool.push_back("COUNT(*) WHERE A0 BETWEEN 0 AND " +
                           std::to_string(hi));
      }
      for (uint32_t hi = kD1 / 2; hi < kD1; ++hi) {
        fx->pool.push_back("COUNT(*) WHERE A1 BETWEEN 1 AND " +
                           std::to_string(hi));
      }
      for (uint32_t lo = 0; lo + 1 < kD2 / 2; ++lo) {
        fx->pool.push_back("COUNT(*) WHERE A2 BETWEEN " + std::to_string(lo) +
                           " AND " + std::to_string(lo + kD2 / 2));
      }
      return fx;
    }();
    return *f;
  }
};

WireClient MustConnect(const QueryServer& server) {
  auto client = WireClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*client);
}

void MustQuery(WireClient& client, const std::string& text) {
  Request req;
  req.type = CommandType::kQuery;
  req.query = text;
  auto resp = client.Call(req);
  if (!resp.ok() || !resp->ok) {
    std::fprintf(stderr, "QUERY %s failed\n", text.c_str());
    std::exit(1);
  }
}

/// Per-request wall times (ns) for `n` QUERY frames rotating the pool on
/// one connection.
std::vector<double> SampleQueryNs(const QueryServer& server, size_t n) {
  auto& f = ServingFixture::Get();
  WireClient client = MustConnect(server);
  std::vector<double> samples;
  samples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto start = std::chrono::steady_clock::now();
    MustQuery(client, f.pool[i % f.pool.size()]);
    const auto stop = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(stop - start).count());
  }
  return samples;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t i = static_cast<size_t>(p * (samples.size() - 1));
  return samples[i];
}

double Mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return samples.empty() ? 0.0 : sum / samples.size();
}

/// Total QPS with `clients` threads, each answering `per_client` queries
/// on its own connection. `batched` sends one BATCH frame per kBatchFrame
/// queries instead of one QUERY frame each.
double MeasureQps(const QueryServer& server, size_t clients,
                  size_t per_client, bool batched) {
  auto& f = ServingFixture::Get();
  std::vector<std::thread> threads;
  const auto start = std::chrono::steady_clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      WireClient client = MustConnect(server);
      if (batched) {
        for (size_t done = 0; done < per_client; done += kBatchFrame) {
          Request req;
          req.type = CommandType::kBatch;
          const size_t take = std::min(kBatchFrame, per_client - done);
          for (size_t i = 0; i < take; ++i) {
            req.queries.push_back(
                f.pool[(c * 7 + done + i) % f.pool.size()]);
          }
          auto resp = client.Call(req);
          if (!resp.ok() || !resp->ok) {
            std::fprintf(stderr, "BATCH failed\n");
            std::exit(1);
          }
        }
      } else {
        for (size_t i = 0; i < per_client; ++i) {
          MustQuery(client, f.pool[(c * 7 + i) % f.pool.size()]);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return static_cast<double>(clients * per_client) /
         std::max(seconds, 1e-9);
}

void BM_WireQueryUncached(benchmark::State& state) {
  auto& f = ServingFixture::Get();
  WireClient client = MustConnect(*f.uncached);
  size_t i = 0;
  for (auto _ : state) {
    MustQuery(client, f.pool[i % f.pool.size()]);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireQueryUncached);

void BM_WireQueryCached(benchmark::State& state) {
  auto& f = ServingFixture::Get();
  WireClient client = MustConnect(*f.cached);
  MustQuery(client, f.pool[0]);  // prime
  for (auto _ : state) MustQuery(client, f.pool[0]);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireQueryCached);

void BM_WireBatch32(benchmark::State& state) {
  auto& f = ServingFixture::Get();
  WireClient client = MustConnect(*f.uncached);
  Request req;
  req.type = CommandType::kBatch;
  for (size_t i = 0; i < kBatchFrame; ++i) {
    req.queries.push_back(f.pool[i % f.pool.size()]);
  }
  for (auto _ : state) {
    auto resp = client.Call(req);
    benchmark::DoNotOptimize(resp);
  }
  state.SetItemsProcessed(state.iterations() * kBatchFrame);
}
BENCHMARK(BM_WireBatch32);

}  // namespace

int main(int argc, char** argv) {
  ApplyQuickFlag(&argc, argv);
  GateRows gate(&argc, argv);
  auto& f = ServingFixture::Get();
  const size_t n = f.requests;
  gate.Record("rows", f.rows);
  gate.Record("requests", n);

  // End-to-end QUERY-frame latency, per request, round trip included.
  // Uncached samples give the ops-facing p50/p99, drawn from at least
  // 1,000 requests so ten or more lie above the p99 at every scale; the
  // warm pass on the caching server fills every pool line, so its
  // measured pass is all hits. Medians on the cached side — a hit is a
  // map probe plus a round trip, so one scheduler hiccup would otherwise
  // dominate.
  const size_t latency_samples = std::max<size_t>(1'000, n);
  gate.Record("latency.samples", latency_samples);
  const std::vector<double> uncached_samples =
      SampleQueryNs(*f.uncached, latency_samples);
  const double uncached_ns = Mean(uncached_samples);
  gate.Record("latency.uncached_ns", uncached_ns);
  gate.Record("latency.p50_ns", Percentile(uncached_samples, 0.50));
  gate.Record("latency.p99_ns", Percentile(uncached_samples, 0.99));
  SampleQueryNs(*f.cached, f.pool.size());  // warm every pool line
  const double cached_ns = Percentile(SampleQueryNs(*f.cached, n), 0.50);
  gate.Record("latency.cached_ns", cached_ns);
  gate.Enforce("latency.cache_speedup", uncached_ns / std::max(cached_ns, 1.0),
               ">=", 10.0);

  // Throughput: concurrent clients, uncached server (every query does
  // real model work, as after a fresh publish).
  const size_t per_client = std::max<size_t>(32, n / 4);
  for (size_t clients : {1, 4}) {
    gate.Record("throughput.qps_" + std::to_string(clients),
                MeasureQps(*f.uncached, clients, per_client, false));
  }
  const double qps_8 = MeasureQps(*f.uncached, 8, per_client, false);
  const double batched_qps_8 = MeasureQps(*f.uncached, 8, per_client, true);
  gate.Record("throughput.qps_8", qps_8);
  gate.Record("throughput.batched_qps_8", batched_qps_8);
  gate.Enforce("throughput.batch_speedup",
               batched_qps_8 / std::max(qps_8, 1e-9), ">=", 1.0);
  gate.Record("cores", std::max(1u, std::thread::hardware_concurrency()));
  if (!gate.Write()) return 1;

  const int status = RunBenchmarks(argc, argv);
  f.cached->Stop();
  f.uncached->Stop();
  fs::remove_all(f.dir);
  return status;
}
