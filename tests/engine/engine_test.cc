// EntropyEngine facade: one query surface over a single summary or a
// routed store, with Open() dispatching on file vs. directory.

#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/engine.h"
#include "sampling/stratified_sampler.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<Table> TwoPairTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(5));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(6));
    row[1] = rng.NextBernoulli(0.85) ? row[0]
                                     : static_cast<Code>(rng.Uniform(6));
    row[2] = static_cast<Code>(rng.Uniform(5));
    row[3] = rng.NextBernoulli(0.85) ? row[2]
                                     : static_cast<Code>(rng.Uniform(5));
    row[4] = static_cast<Code>(rng.Uniform(4));
  }
  return testutil::MakeTable({6, 6, 5, 5, 4}, rows);
}

StoreOptions SmallStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 40;
  opts.summary.solver.max_iterations = 120;
  return opts;
}

/// Every answer kind `engine` serves over TwoPairTable's schema: COUNT,
/// SUM, AVG, QUANTILE, TOPK, and a fused JOIN_COUNT / JOIN_SUM of the
/// engine with itself.
std::vector<QueryResult> AllKindAnswers(const EntropyEngine& engine) {
  std::vector<double> weights(6);
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = 0.5 + i;
  CountingQuery where(5);
  where.Where(1, AttrPredicate::Range(1, 4)).Where(2, AttrPredicate::Point(3));
  CountingQuery right_where(5);
  right_where.Where(0, AttrPredicate::Point(1));
  const AggregateQuery join_count =
      AggregateQuery::JoinCount(4, 4, where, right_where);
  const AggregateQuery join_sum =
      AggregateQuery::JoinSum(0, weights, 4, 4, where, right_where);
  const std::vector<Result<QueryResult>> results = {
      engine.Answer(AggregateQuery::Count(where)),
      engine.Answer(AggregateQuery::Sum(0, weights, where)),
      engine.Answer(AggregateQuery::Avg(0, weights, where)),
      engine.Answer(AggregateQuery::Quantile(0, weights, 0.5, where)),
      engine.Answer(AggregateQuery::TopK(0, 3, where)),
      engine.AnswerJoin(join_count, engine),
      engine.AnswerJoin(join_sum, engine),
  };
  std::vector<QueryResult> out;
  for (const Result<QueryResult>& r : results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) out.push_back(*r);
  }
  return out;
}

/// Exact equality of every field an answer kind fills: the estimate, the
/// moment legs, the QUANTILE bound and the TOPK cells.
void ExpectSameAnswer(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.estimate.expectation, want.estimate.expectation);
  EXPECT_EQ(got.estimate.variance, want.estimate.variance);
  EXPECT_EQ(got.sum.expectation, want.sum.expectation);
  EXPECT_EQ(got.sum.variance, want.sum.variance);
  EXPECT_EQ(got.count.expectation, want.count.expectation);
  EXPECT_EQ(got.count.variance, want.count.variance);
  EXPECT_EQ(got.sum_count_cov, want.sum_count_cov);
  EXPECT_EQ(got.bound_lo, want.bound_lo);
  EXPECT_EQ(got.bound_hi, want.bound_hi);
  ASSERT_EQ(got.cells.size(), want.cells.size());
  for (size_t i = 0; i < want.cells.size(); ++i) {
    EXPECT_EQ(got.cells[i].code, want.cells[i].code);
    EXPECT_EQ(got.cells[i].estimate.expectation,
              want.cells[i].estimate.expectation);
    EXPECT_EQ(got.cells[i].estimate.variance, want.cells[i].estimate.variance);
  }
}

/// `got` is a one-shard engine's facade decision, `want` the decision the
/// shard's store router made on its own: equal field by field, plus the
/// facade's one-scanned-shard counters.
void ExpectSameRoute(const RouteDecision& got, const RouteDecision& want) {
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.covered_pairs, want.covered_pairs);
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.fallback, want.fallback);
  EXPECT_EQ(got.expected_variance, want.expected_variance);
  EXPECT_EQ(got.from_sample, want.from_sample);
  EXPECT_EQ(got.sample_index, want.sample_index);
  EXPECT_EQ(got.summary_variance, want.summary_variance);
  EXPECT_EQ(got.sample_variance, want.sample_variance);
  EXPECT_EQ(got.pruned, want.pruned);
  EXPECT_EQ(got.pruned_attr, want.pruned_attr);
  EXPECT_EQ(got.shards_pruned, 0u);
  EXPECT_EQ(got.shards_scanned, 1u);
}

TEST(EntropyEngineTest, SingleSummaryFacadeAnswersLikeTheSummary) {
  auto table = TwoPairTable(800, 71);
  auto summary = EntropySummary::Build(*table, {});
  ASSERT_TRUE(summary.ok());
  auto engine = EntropyEngine::FromSummary(*summary);
  EXPECT_EQ(engine->num_shards(), 1u);
  EXPECT_EQ(engine->num_summaries(), 1u);

  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(2));
  RouteDecision dec;
  auto via_engine = engine->Answer(q, &dec);
  auto direct = (*summary)->Answer(q);
  ASSERT_TRUE(via_engine.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(via_engine->expectation, direct->expectation);
  EXPECT_EQ(dec.index, 0u);
}

TEST(EntropyEngineTest, StoreBackedEngineRoutes) {
  auto table = TwoPairTable(1200, 73);
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  auto engine = EntropyEngine::FromStore(*store);
  EXPECT_EQ(engine->num_shards(), 1u);
  EXPECT_EQ(engine->num_summaries(), 2u);

  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(1)).Where(1, AttrPredicate::Point(1));
  RouteDecision dec;
  auto est = engine->Answer(q, &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(dec.fallback);
  auto direct = engine->sharded()->shard(0).summary(dec.index).Answer(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(est->expectation, direct->expectation);
}

TEST(EntropyEngineTest, BatchedAnswersMatchSerial) {
  auto table = TwoPairTable(900, 79);
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  auto engine = EntropyEngine::FromStore(*store);
  std::vector<CountingQuery> qs;
  for (Code v = 0; v < 5; ++v) {
    CountingQuery q(5);
    q.Where(2, AttrPredicate::Point(v)).Where(3, AttrPredicate::Point(v));
    qs.push_back(q);
  }
  auto batch = engine->AnswerAll(qs);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < qs.size(); ++i) {
    auto serial = engine->Answer(qs[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].expectation, serial->expectation);
  }
}

TEST(EntropyEngineTest, AggregatesRouteOnTheAggregatedAttribute) {
  auto table = TwoPairTable(1200, 83);
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  auto engine = EntropyEngine::FromStore(*store);

  // SUM(A0) WHERE A1 = 2: only attr 1 is filtered, but the aggregate runs
  // over attr 0, so the (0, 1)-modeling entry covers it.
  size_t pair01 = 0;
  for (size_t k = 0; k < (*store)->size(); ++k) {
    const ScoredPair& p = (*store)->entry(k).pairs.front();
    if (p.a + p.b == 1) pair01 = k;  // {0, 1}
  }
  std::vector<double> weights(6);
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = 1.0 + i;
  CountingQuery q(5);
  q.Where(1, AttrPredicate::Point(2));
  RouteDecision dec;
  auto est = engine->Answer(AggregateQuery::Sum(0, weights, q), &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(dec.index, pair01);
  EXPECT_FALSE(dec.fallback);
  auto direct = engine->sharded()->shard(0).summary(pair01).Answer(
      AggregateQuery::Sum(0, weights, q));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(est->estimate.expectation, direct->estimate.expectation);

  auto avg = engine->Answer(AggregateQuery::Avg(0, weights, q), &dec);
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(dec.index, pair01);
  EXPECT_GT(avg->estimate.expectation, 0.0);
}

TEST(EntropyEngineTest, OpenDispatchesOnFileVsDirectory) {
  auto table = TwoPairTable(800, 89);
  const auto tmp = fs::temp_directory_path();
  const std::string file = (tmp / "entropydb_engine_test.edb").string();
  const std::string dir = (tmp / "entropydb_engine_test_store").string();
  fs::remove_all(dir);
  fs::remove(file);

  auto summary = EntropySummary::Build(*table, {});
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE((*summary)->Save(file).ok());
  auto store = SourceStore::Build(*table, SmallStoreOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Save(dir).ok());

  auto from_file = EntropyEngine::Open(file);
  ASSERT_TRUE(from_file.ok());
  EXPECT_EQ((*from_file)->num_shards(), 1u);

  auto from_dir = EntropyEngine::Open(dir);
  ASSERT_TRUE(from_dir.ok());
  EXPECT_EQ((*from_dir)->num_shards(), 1u);
  EXPECT_EQ((*from_dir)->num_summaries(), 2u);

  CountingQuery q(5);
  q.Where(0, AttrPredicate::Point(1)).Where(1, AttrPredicate::Point(1));
  auto est = (*from_dir)->Answer(q);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->expectation, 0.0);

  EXPECT_FALSE(EntropyEngine::Open((tmp / "entropydb_missing").string()).ok());
  fs::remove_all(dir);
  fs::remove(file);
}

TEST(EntropyEngineTest, OpenRestoresHybridStoresWithSamples) {
  auto table = TwoPairTable(1000, 97);
  StoreOptions opts = SmallStoreOptions();
  opts.num_stratified_samples = 1;
  opts.sample_fraction = 0.05;
  auto store = SourceStore::Build(*table, opts);
  ASSERT_TRUE(store.ok());

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_engine_hybrid_store").string();
  fs::remove_all(dir);
  ASSERT_TRUE((*store)->Save(dir).ok());
  auto engine = EntropyEngine::Open(dir);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->num_shards(), 1u);
  EXPECT_EQ((*engine)->num_summaries(), 2u);
  EXPECT_EQ((*engine)->num_samples(), 1u);

  // Routed answers through the restored engine match the in-memory store's
  // routing (same decision, same bits).
  QueryRouter reference(*store);
  for (Code v = 0; v < 5; ++v) {
    CountingQuery q(5);
    q.Where(2, AttrPredicate::Point(v)).Where(3, AttrPredicate::Point(v));
    RouteDecision got, want;
    auto est = (*engine)->Answer(q, &got);
    auto ref = reference.Answer(q, &want);
    ASSERT_TRUE(est.ok());
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(got.from_sample, want.from_sample);
    EXPECT_EQ(est->expectation, ref->expectation);
    EXPECT_EQ(est->variance, ref->variance);
  }
  fs::remove_all(dir);
}

TEST(EntropyEngineTest, EveryConstructionServesOneShape) {
  auto table = TwoPairTable(1000, 101);
  StatisticSelector selector(SelectionHeuristic::kComposite);
  auto summary =
      EntropySummary::Build(*table, selector.Select(*table, 0, 1, 20));
  ASSERT_TRUE(summary.ok());
  auto store = SourceStore::FromEntries({StoreEntry{*summary, {}}});
  ASSERT_TRUE(store.ok());
  auto one_shard =
      ShardedStore::FromShards({*store}, PartitionScheme::kRoundRobin);
  ASSERT_TRUE(one_shard.ok());

  const auto tmp = fs::temp_directory_path();
  const std::string file = (tmp / "entropydb_engine_shape.edb").string();
  const std::string dir = (tmp / "entropydb_engine_shape_store").string();
  fs::remove(file);
  fs::remove_all(dir);
  ASSERT_TRUE((*summary)->Save(file).ok());
  ASSERT_TRUE((*store)->Save(dir).ok());
  auto from_file = EntropyEngine::Open(file);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  auto from_dir = EntropyEngine::Open(dir);
  ASSERT_TRUE(from_dir.ok()) << from_dir.status().ToString();

  // A summary, a one-entry store, a one-shard sharded store, and both
  // persisted forms: one shape, so every answer kind agrees exactly.
  const std::vector<std::shared_ptr<EntropyEngine>> engines = {
      EntropyEngine::FromSummary(*summary),
      EntropyEngine::FromStore(*store),
      EntropyEngine::FromSharded(*one_shard),
      *from_file,
      *from_dir,
  };
  const std::vector<QueryResult> want = AllKindAnswers(*engines.front());
  ASSERT_EQ(want.size(), 7u);
  for (size_t e = 0; e < engines.size(); ++e) {
    SCOPED_TRACE("engine " + std::to_string(e));
    EXPECT_EQ(engines[e]->num_shards(), 1u);
    EXPECT_EQ(engines[e]->num_summaries(), 1u);
    const std::vector<QueryResult> got = AllKindAnswers(*engines[e]);
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) ExpectSameAnswer(got[k], want[k]);
  }
  fs::remove(file);
  fs::remove_all(dir);
}

TEST(EntropyEngineTest, OneShardDecisionIsTheStoreRoutersDecision) {
  // A summary modeling (A0, A1) only, plus a sample stratified on
  // (A2, A3): rare (A2, A3) cells route to the sample, the rest stay on
  // the summary, so both hybrid outcomes are exercised.
  auto table = TwoPairTable(1500, 103);
  StatisticSelector selector(SelectionHeuristic::kComposite);
  auto summary =
      EntropySummary::Build(*table, selector.Select(*table, 0, 1, 20));
  ASSERT_TRUE(summary.ok());
  auto drawn = StratifiedSampler::Create(*table, 2, 3, 0.05, 7);
  ASSERT_TRUE(drawn.ok());
  SampleEntry sample;
  sample.sample =
      std::make_shared<WeightedSample>(std::move(drawn).ValueOrDie());
  sample.pairs = {ScoredPair{2, 3, 0.85, 0.0}};
  StoreEntry entry{*summary, {ScoredPair{0, 1, 0.85, 0.0}}};
  auto store = SourceStore::FromParts({entry}, {sample});
  ASSERT_TRUE(store.ok());
  auto engine = EntropyEngine::FromStore(*store);
  QueryRouter router(*store);

  std::vector<double> weights(6);
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = 1.0 + i;
  size_t queries = 0, from_sample = 0;
  for (Code v = 0; v < 5; ++v) {
    for (Code w = 0; w < 5; ++w) {
      CountingQuery q(5);
      q.Where(2, AttrPredicate::Point(v)).Where(3, AttrPredicate::Point(w));
      RouteDecision got, want;
      auto est = engine->Answer(q, &got);
      auto ref = router.Answer(q, &want);
      ASSERT_TRUE(est.ok());
      ASSERT_TRUE(ref.ok());
      EXPECT_EQ(est->expectation, ref->expectation);
      ExpectSameRoute(got, want);
      ++queries;
      from_sample += got.from_sample;

      const std::vector<AggregateQuery> aggregates = {
          AggregateQuery::Count(q),
          AggregateQuery::Sum(0, weights, q),
          AggregateQuery::Avg(0, weights, q),
      };
      for (const AggregateQuery& aq : aggregates) {
        auto res = engine->Answer(aq, &got);
        auto res_ref = router.Answer(aq, &want);
        ASSERT_TRUE(res.ok());
        ASSERT_TRUE(res_ref.ok());
        EXPECT_EQ(res->estimate.expectation, res_ref->estimate.expectation);
        EXPECT_EQ(res->estimate.variance, res_ref->estimate.variance);
        ExpectSameRoute(got, want);
        ExpectSameRoute(res->route, want);
      }
    }
  }
  EXPECT_GT(from_sample, 0u);
  EXPECT_LT(from_sample, queries);
}

}  // namespace
}  // namespace entropydb
