// VersionCatalog (server/version_catalog.h): opening the next version
// reuses every shard the live engine already holds with identical files
// and loads only the rest, every file is read once either way, answers
// stay bitwise those of a cold open, a
// full rebuild under the same shard names shares nothing, a version that
// fails to open never goes live, and an unpinned query issued while a
// refresh is opening answers from the live version without waiting.

#include "server/version_catalog.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "common/fault_injection_env.h"
#include "engine/versioned.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/server.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<Table> ServeTable(size_t n, uint64_t seed) {
  return testutil::RandomTable({6, 6, 5}, n, seed);
}

StoreOptions SmallStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 40;
  opts.summary.solver.max_iterations = 120;
  opts.num_stratified_samples = 1;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.05;
  return opts;
}

std::string BatchCsv(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::string csv = "A0,A1,A2\n";
  for (size_t i = 0; i < rows; ++i) {
    csv += std::to_string(rng.Uniform(6)) + "," +
           std::to_string(rng.Uniform(6)) + "," +
           std::to_string(rng.Uniform(5)) + "\n";
  }
  return csv;
}

/// Counts reads per path and, once Gate(prefix) is called, holds every
/// read of a path under `prefix` until Release().
class GatedEnv : public FaultInjectionEnv {
 public:
  Status ReadFile(const std::string& path, std::string* out) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++reads_[path];
      if (!gate_.empty() && path.rfind(gate_, 0) == 0) {
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return gate_.empty(); });
      }
    }
    return FaultInjectionEnv::ReadFile(path, out);
  }

  void Gate(const std::string& prefix) {
    std::lock_guard<std::mutex> lock(mu_);
    gate_ = prefix;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    gate_.clear();
    cv_.notify_all();
  }
  /// True once a read waits at the gate (false after `timeout`).
  bool WaitUntilBlocked(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return blocked_ > 0; });
  }
  size_t Reads(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = reads_.find(path);
    return it == reads_.end() ? 0 : it->second;
  }
  /// Reads of every path under `prefix`, summed.
  size_t ReadsUnder(const std::string& prefix) const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const auto& [path, n] : reads_) {
      if (path.rfind(prefix, 0) == 0) total += n;
    }
    return total;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, size_t> reads_;
  std::string gate_;
  size_t blocked_ = 0;
};

/// Every shard's SourceStore, by address.
std::vector<const SourceStore*> Shards(const EntropyEngine& engine) {
  std::vector<const SourceStore*> out;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    out.push_back(engine.sharded()->shard_ptr(s).get());
  }
  return out;
}

void ExpectSameEstimate(const QueryEstimate& got, const QueryEstimate& want) {
  EXPECT_EQ(got.expectation, want.expectation);
  EXPECT_EQ(got.variance, want.variance);
}

void ExpectSameAnswer(const QueryResult& got, const QueryResult& want) {
  ExpectSameEstimate(got.estimate, want.estimate);
  ExpectSameEstimate(got.sum, want.sum);
  ExpectSameEstimate(got.count, want.count);
  EXPECT_EQ(got.sum_count_cov, want.sum_count_cov);
  EXPECT_EQ(got.bound_lo, want.bound_lo);
  EXPECT_EQ(got.bound_hi, want.bound_hi);
  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (size_t i = 0; i < want.cells.size(); ++i) {
    EXPECT_EQ(got.cells[i].code, want.cells[i].code);
    ExpectSameEstimate(got.cells[i].estimate, want.cells[i].estimate);
  }
}

/// "estimate <e> <v>" as the server renders a COUNT of `text` on
/// `engine`.
std::string CountLine(const EntropyEngine& engine, const std::string& text) {
  auto parsed = ParseQuery(text, engine.attr_names(), engine.domains());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return "";
  auto est = engine.Answer(parsed->where);
  EXPECT_TRUE(est.ok()) << est.status().ToString();
  if (!est.ok()) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "estimate %.17g %.17g", est->expectation,
                est->variance);
  return buf;
}

std::string Line0(const Result<WireResponse>& resp) {
  if (!resp.ok()) return resp.status().ToString();
  if (!resp->ok) return "ERR " + resp->code + " " + resp->message;
  return resp->lines.empty() ? "<no lines>" : resp->lines[0];
}

class VersionCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("entropydb_version_catalog_test_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
    PublishBuild(101);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    fs::remove_all(root_);
  }

  /// Builds a 2-shard store (shard_0, shard_1) over fresh rows and
  /// publishes it as the next version: a full rebuild.
  void PublishBuild(uint64_t seed) {
    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.store = SmallStoreOptions();
    auto built = ShardedStore::Build(*ServeTable(800, seed), sopts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    VersionSet::Options vopts;
    vopts.retain = 2;
    auto vs = VersionSet::Open(root_, Env::Default(), vopts);
    ASSERT_TRUE(vs.ok()) << vs.status().ToString();
    const uint64_t id = (*vs)->BeginVersion();
    ASSERT_TRUE((*built)->Save((*vs)->VersionDir(id)).ok());
    ASSERT_TRUE((*vs)->Publish(id).ok());
  }

  uint64_t PublishAppend(size_t rows, uint64_t seed) {
    auto report =
        AppendVersion(root_, BatchCsv(rows, seed), SmallStoreOptions());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? report->version : 0;
  }

  std::string Dir(uint64_t id) const {
    return root_ + "/v" + std::to_string(id);
  }

  std::unique_ptr<VersionCatalog> OpenCatalog() {
    auto catalog =
        VersionCatalog::Open(root_, SmallStoreOptions().summary, &env_);
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    return catalog.ok() ? std::move(*catalog) : nullptr;
  }

  /// A cold EntropyEngine::Open of version `id`, sharing nothing.
  std::shared_ptr<EntropyEngine> ColdOpen(uint64_t id) {
    auto engine = EntropyEngine::Open(Dir(id), SmallStoreOptions().summary);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? *engine : nullptr;
  }

  /// Reads of shard `name`'s MANIFEST in version `id`: one whether the
  /// open reused the shard (its identity read) or loaded it (from the
  /// identity pass's payloads).
  size_t ManifestReads(uint64_t id, const std::string& name) const {
    return env_.Reads(Dir(id) + "/" + name + "/MANIFEST");
  }

  /// True when the open read every file of shard `name` in version `id`
  /// exactly once.
  bool EachFileReadOnce(uint64_t id, const std::string& name) const {
    size_t files = 0;
    for (const auto& entry : fs::directory_iterator(Dir(id) + "/" + name)) {
      ++files;
      if (env_.Reads(entry.path().string()) != 1) return false;
    }
    return files > 0;
  }

  /// Every query kind, AnswerAll and a group-by on `got` equal a cold
  /// open of version `id`, bitwise.
  void ExpectAnswersLikeColdOpen(const EntropyEngine& got, uint64_t id) {
    const std::shared_ptr<EntropyEngine> cold = ColdOpen(id);
    ASSERT_NE(cold, nullptr);
    ASSERT_EQ(got.n(), cold->n());
    const std::shared_ptr<Table> schema = ServeTable(1, 1);
    const std::vector<double> weights = {0.5, 1.5, 2.5, 3.5, 4.5};
    Rng rng(733 + id);
    std::vector<CountingQuery> batch;
    for (int i = 0; i < 12; ++i) {
      const CountingQuery where = testutil::RandomQuery(rng, *schema);
      const CountingQuery right = testutil::RandomQuery(rng, *schema);
      batch.push_back(where);
      const std::vector<AggregateQuery> queries = {
          AggregateQuery::Count(where),
          AggregateQuery::Sum(2, weights, where),
          AggregateQuery::Avg(2, weights, where),
          AggregateQuery::Quantile(2, weights, 0.5, where),
          AggregateQuery::TopK(1, 3, where),
      };
      for (const AggregateQuery& q : queries) {
        auto a = got.Answer(q);
        auto b = cold->Answer(q);
        ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString();
        ExpectSameAnswer(*a, *b);
      }
      const std::vector<AggregateQuery> joins = {
          AggregateQuery::JoinCount(0, 0, where, right),
          AggregateQuery::JoinSum(2, weights, 0, 0, where, right),
      };
      for (const AggregateQuery& q : joins) {
        auto a = got.AnswerJoin(q, got);
        auto b = cold->AnswerJoin(q, *cold);
        ASSERT_TRUE(a.ok() && b.ok()) << a.status().ToString();
        ExpectSameAnswer(*a, *b);
      }
      const std::vector<std::vector<Code>> keys = {{0, 1}, {2, 3}, {5, 0}};
      auto ga = got.AnswerGroupBy({0, 1}, keys, where);
      auto gb = cold->AnswerGroupBy({0, 1}, keys, where);
      ASSERT_TRUE(ga.ok() && gb.ok()) << ga.status().ToString();
      ASSERT_EQ(ga->size(), gb->size());
      for (const auto& [key, est] : *gb) ExpectSameEstimate(ga->at(key), est);
    }
    auto all_a = got.AnswerAll(batch);
    auto all_b = cold->AnswerAll(batch);
    ASSERT_TRUE(all_a.ok() && all_b.ok()) << all_a.status().ToString();
    ASSERT_EQ(all_a->size(), all_b->size());
    for (size_t i = 0; i < all_b->size(); ++i) {
      ExpectSameEstimate((*all_a)[i], (*all_b)[i]);
    }
  }

  void StartServer() {
    QueryServer::Options opts;
    opts.path = root_;
    opts.summary = SmallStoreOptions().summary;
    auto server = QueryServer::Start(opts, &env_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  WireClient Connect() {
    auto client = WireClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : WireClient();
  }

  std::string root_;
  GatedEnv env_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(VersionCatalogTest, AppendReusesTheLiveShardsAndLoadsOnlyTheNewOne) {
  auto catalog = OpenCatalog();
  ASSERT_NE(catalog, nullptr);
  const VersionCatalog::Snapshot v1 = catalog->Live();
  EXPECT_EQ(v1.id, 1u);
  ASSERT_EQ(PublishAppend(200, 301), 2u);

  auto changed = catalog->Refresh();
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  const VersionCatalog::Snapshot v2 = catalog->Live();
  EXPECT_EQ(v2.id, 2u);
  EXPECT_EQ(catalog->current(), 2u);
  ASSERT_EQ(v2.engine->num_shards(), 3u);
  const std::vector<const SourceStore*> before = Shards(*v1.engine);
  const std::vector<const SourceStore*> after = Shards(*v2.engine);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(std::count(before.begin(), before.end(), after[2]), 0);
  EXPECT_EQ(ManifestReads(2, "shard_0"), 1u);
  EXPECT_EQ(ManifestReads(2, "shard_1"), 1u);
  EXPECT_EQ(ManifestReads(2, "shard_b0"), 1u);
  EXPECT_TRUE(EachFileReadOnce(2, "shard_0"));
  EXPECT_TRUE(EachFileReadOnce(2, "shard_b0"));

  // A refresh with nothing new published keeps the pair.
  auto again = catalog->Refresh();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
  EXPECT_EQ(catalog->Live().engine, v2.engine);
}

TEST_F(VersionCatalogTest, CompactionBetweenRefreshesStillReusesLiveShards) {
  // An append whose compaction publishes a second version before the
  // next refresh: with retain 2, neither retained version (v2, v3) was
  // ever opened, so the shards come from the live v1 engine.
  auto catalog = OpenCatalog();
  ASSERT_NE(catalog, nullptr);
  const VersionCatalog::Snapshot v1 = catalog->Live();
  ASSERT_EQ(PublishAppend(200, 311), 2u);
  CompactionOptions copts;
  copts.store = SmallStoreOptions();
  copts.force = true;
  auto compacted = CompactVersion(root_, copts);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  ASSERT_EQ(compacted->version, 3u);
  ASSERT_EQ(compacted->compaction.new_shards.size(), 1u);
  const std::string fresh = compacted->compaction.new_shards[0];

  auto changed = catalog->Refresh();
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  EXPECT_EQ(catalog->versions(), (std::vector<uint64_t>{2, 3}));
  const VersionCatalog::Snapshot v3 = catalog->Live();
  EXPECT_EQ(v3.id, 3u);
  ASSERT_EQ(v3.engine->num_shards(), 3u);
  const std::vector<const SourceStore*> before = Shards(*v1.engine);
  const std::vector<const SourceStore*> after = Shards(*v3.engine);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(ManifestReads(3, "shard_0"), 1u);
  EXPECT_EQ(ManifestReads(3, "shard_1"), 1u);
  EXPECT_EQ(ManifestReads(3, fresh), 1u);
  ExpectAnswersLikeColdOpen(*v3.engine, 3);
}

TEST_F(VersionCatalogTest, RefreshedEngineAnswersLikeAColdOpen) {
  auto catalog = OpenCatalog();
  ASSERT_NE(catalog, nullptr);
  ASSERT_EQ(PublishAppend(200, 321), 2u);
  ASSERT_TRUE(catalog->Refresh().ok());
  const VersionCatalog::Snapshot v2 = catalog->Live();
  ASSERT_EQ(v2.id, 2u);
  ExpectAnswersLikeColdOpen(*v2.engine, 2);
}

TEST_F(VersionCatalogTest, FullRebuildUnderTheSameShardNamesSharesNothing) {
  auto catalog = OpenCatalog();
  ASSERT_NE(catalog, nullptr);
  const VersionCatalog::Snapshot v1 = catalog->Live();
  PublishBuild(977);  // other rows, published as shard_0 and shard_1 again

  ASSERT_TRUE(catalog->Refresh().ok());
  const VersionCatalog::Snapshot v2 = catalog->Live();
  ASSERT_EQ(v2.id, 2u);
  ASSERT_EQ(v2.engine->num_shards(), 2u);
  const std::vector<const SourceStore*> before = Shards(*v1.engine);
  for (const SourceStore* shard : Shards(*v2.engine)) {
    EXPECT_EQ(std::count(before.begin(), before.end(), shard), 0);
  }
  EXPECT_EQ(ManifestReads(2, "shard_0"), 1u);
  EXPECT_EQ(ManifestReads(2, "shard_1"), 1u);
  EXPECT_TRUE(EachFileReadOnce(2, "shard_0"));
  EXPECT_TRUE(EachFileReadOnce(2, "shard_1"));
  ExpectAnswersLikeColdOpen(*v2.engine, 2);
}

TEST_F(VersionCatalogTest, PinOfAnOlderVersionReusesTheLiveShards) {
  ASSERT_EQ(PublishAppend(200, 331), 2u);
  auto catalog = OpenCatalog();  // v2 opens cold
  ASSERT_NE(catalog, nullptr);
  const VersionCatalog::Snapshot v2 = catalog->Live();
  ASSERT_EQ(v2.id, 2u);
  auto v1 = catalog->Pin(1);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  ASSERT_EQ((*v1)->num_shards(), 2u);
  EXPECT_EQ(Shards(**v1), (std::vector<const SourceStore*>{
                              Shards(*v2.engine)[0], Shards(*v2.engine)[1]}));
  EXPECT_EQ(ManifestReads(1, "shard_0"), 1u);
  EXPECT_EQ(ManifestReads(1, "shard_1"), 1u);
  EXPECT_EQ(catalog->current(), 2u);
  ExpectAnswersLikeColdOpen(**v1, 1);
  // A second pin hands out the same engine without another open.
  auto again = catalog->Pin(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *v1);
}

TEST_F(VersionCatalogTest, VersionThatFailsToOpenNeverGoesLive) {
  StartServer();
  WireClient client = Connect();
  const std::shared_ptr<EntropyEngine> cold_v1 = ColdOpen(1);
  ASSERT_EQ(PublishAppend(200, 341), 2u);
  const std::string summary = Dir(2) + "/shard_b0/summary_0.edb";
  std::string pristine;
  ASSERT_TRUE(Env::Default()->ReadFile(summary, &pristine).ok());
  std::string corrupt = pristine;
  corrupt[corrupt.size() / 2] ^= 0x01;
  ASSERT_TRUE(Env::Default()->WriteFile(summary, corrupt).ok());

  auto version = client.CallRaw("VERSION");
  ASSERT_TRUE(version.ok());
  EXPECT_FALSE(version->ok);
  EXPECT_EQ(version->code, "INTERNAL");
  auto open_live = client.CallRaw("OPEN live");
  ASSERT_TRUE(open_live.ok());
  EXPECT_FALSE(open_live->ok);
  EXPECT_EQ(open_live->code, "INTERNAL");

  // The previous engine keeps answering, and queries never retry v2.
  const size_t v2_reads = env_.ReadsUnder(Dir(2) + "/");
  EXPECT_GT(v2_reads, 0u);
  for (const char* text : {"COUNT(*) WHERE A0 = 1", "COUNT(*) WHERE A1 = 2",
                           "COUNT(*) WHERE A2 IN (0, 3)"}) {
    EXPECT_EQ(Line0(client.CallRaw(std::string("QUERY ") + text)),
              CountLine(*cold_v1, text))
        << text;
  }
  auto stats = client.CallRaw("STATS");
  ASSERT_TRUE(stats.ok() && stats->ok);
  EXPECT_EQ(stats->lines[0], "version 1");
  EXPECT_EQ(env_.ReadsUnder(Dir(2) + "/"), v2_reads);

  // Repaired, the next refresh opens v2 and it goes live.
  ASSERT_TRUE(Env::Default()->WriteFile(summary, pristine).ok());
  EXPECT_EQ(Line0(client.CallRaw("VERSION")), "current 2");
  const std::shared_ptr<EntropyEngine> cold_v2 = ColdOpen(2);
  EXPECT_EQ(Line0(client.CallRaw("QUERY COUNT(*) WHERE A0 = 1")),
            CountLine(*cold_v2, "COUNT(*) WHERE A0 = 1"));
}

TEST_F(VersionCatalogTest, QueryDuringARefreshAnswersFromLiveWithoutWaiting) {
  StartServer();
  WireClient client = Connect();
  const std::shared_ptr<EntropyEngine> cold_v1 = ColdOpen(1);
  ASSERT_EQ(PublishAppend(200, 351), 2u);
  const std::shared_ptr<EntropyEngine> cold_v2 = ColdOpen(2);
  const std::string text = "COUNT(*) WHERE A0 = 2 AND A1 BETWEEN 1 AND 4";

  env_.Gate(Dir(2) + "/");
  std::thread refresher([this] {
    auto changed = server_->RefreshVersions();
    EXPECT_TRUE(changed.ok()) << changed.status().ToString();
    EXPECT_TRUE(changed.ok() && *changed);
  });
  ASSERT_TRUE(env_.WaitUntilBlocked(std::chrono::seconds(60)));
  auto during = std::async(std::launch::async, [&] {
    return Line0(client.CallRaw("QUERY " + text));
  });
  const bool answered =
      during.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  env_.Release();
  refresher.join();
  EXPECT_TRUE(answered) << "the query waited for the refresh";
  EXPECT_EQ(during.get(), CountLine(*cold_v1, text));

  auto after = client.CallRaw("QUERY " + text);
  ASSERT_TRUE(after.ok() && after->ok);
  EXPECT_EQ(after->lines[0], CountLine(*cold_v2, text));
  EXPECT_EQ(after->lines.back(), "cached 0");
}

}  // namespace
}  // namespace entropydb
