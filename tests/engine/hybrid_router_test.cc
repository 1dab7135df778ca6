// Hybrid routing: a SourceStore holding a maxent summary on one pair and a
// stratified sample on another. Queries on rare strata the summary does
// not model must route to the sample (lower HT variance); broad queries on
// the modeled pair must stay on the summary; a query the sample never saw
// must fall back to the summary with a FINITE sample variance; and every
// routed answer is bitwise the chosen source's own answer.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/engine.h"
#include "engine/query_router.h"
#include "query/exact_evaluator.h"
#include "sampling/stratified_sampler.h"

namespace entropydb {
namespace {

/// A0~A1 correlated; A2~A3 strongly correlated (0.95 diagonal mass), so
/// off-diagonal (A2, A3) cells are rare (a handful of rows each).
std::shared_ptr<Table> HybridTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(4));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(8));
    row[1] = rng.NextBernoulli(0.9) ? row[0]
                                    : static_cast<Code>(rng.Uniform(8));
    row[2] = static_cast<Code>(rng.Uniform(12));
    row[3] = rng.NextBernoulli(0.95) ? row[2]
                                     : static_cast<Code>(rng.Uniform(12));
  }
  return testutil::MakeTable({8, 8, 12, 12}, rows);
}

struct HybridFixture {
  std::shared_ptr<Table> table;
  std::shared_ptr<SourceStore> store;
  QueryRouter router;
  std::map<std::vector<Code>, size_t> cells23;  // exact (A2, A3) counts

  static HybridFixture& Get() {
    static HybridFixture* f = [] {
      auto table = HybridTable(4000, 331);
      // One summary modeling (0, 1) ONLY — (2, 3) correlations are
      // invisible to it — plus one stratified sample on (2, 3).
      StatisticSelector selector(SelectionHeuristic::kComposite);
      SummaryOptions sopts;
      sopts.solver.max_iterations = 150;
      auto summary = EntropySummary::Build(
          *table, selector.Select(*table, 0, 1, 40), sopts);
      EXPECT_TRUE(summary.ok());
      StoreEntry entry;
      entry.summary = *summary;
      entry.pairs = {ScoredPair{0, 1, 0.9, 0.0}};
      auto drawn = StratifiedSampler::Create(*table, 2, 3, 0.05, 7);
      EXPECT_TRUE(drawn.ok());
      SampleEntry sample;
      sample.sample =
          std::make_shared<WeightedSample>(std::move(drawn).ValueOrDie());
      sample.pairs = {ScoredPair{2, 3, 0.95, 0.0}};
      auto store = SourceStore::FromParts({entry}, {sample});
      EXPECT_TRUE(store.ok());
      ExactEvaluator exact(*table);
      auto* fx = new HybridFixture{table, *store, QueryRouter(*store), {}};
      for (const auto& [key, count] : exact.GroupByCount({2, 3})) {
        fx->cells23[key] = count;
      }
      return fx;
    }();
    return *f;
  }

  /// Off-diagonal (A2, A3) cells with a true count in [lo, hi].
  std::vector<std::vector<Code>> RareCells(size_t lo, size_t hi) const {
    std::vector<std::vector<Code>> out;
    for (const auto& [key, count] : cells23) {
      if (key[0] != key[1] && count >= lo && count <= hi) out.push_back(key);
    }
    return out;
  }
};

CountingQuery CellQuery(Code a2, Code a3) {
  CountingQuery q(4);
  q.Where(2, AttrPredicate::Point(a2)).Where(3, AttrPredicate::Point(a3));
  return q;
}

TEST(HybridRouterTest, RareAlignedQueriesRouteToTheSample) {
  auto& f = HybridFixture::Get();
  auto rare = f.RareCells(1, 3);
  ASSERT_FALSE(rare.empty());
  size_t sampled = 0;
  for (const auto& cell : rare) {
    CountingQuery q = CellQuery(cell[0], cell[1]);
    RouteDecision dec;
    auto est = f.router.Answer(q, &dec);
    ASSERT_TRUE(est.ok());
    // Consistency: the winner is exactly the lower-variance source.
    EXPECT_EQ(dec.from_sample, dec.sample_variance < dec.summary_variance);
    if (!dec.from_sample) continue;
    ++sampled;
    // Bitwise the sample's own answer — and stratification on (2, 3)
    // makes whole-stratum queries exact.
    auto direct = f.store->sample_source(dec.sample_index).Answer(q);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(est->expectation, direct->expectation);
    EXPECT_EQ(est->variance, direct->variance);
    EXPECT_NEAR(est->expectation,
                static_cast<double>(f.cells23.at(cell)), 1e-9);
  }
  // The paper's crossover: rare strata are where the sample must win.
  EXPECT_GT(sampled, 0u);
}

TEST(HybridRouterTest, BroadModeledQueriesStayOnTheSummary) {
  auto& f = HybridFixture::Get();
  for (Code v = 0; v < 4; ++v) {
    CountingQuery q(4);
    q.Where(0, AttrPredicate::Point(v)).Where(1, AttrPredicate::Point(v));
    RouteDecision dec;
    auto est = f.router.Answer(q, &dec);
    ASSERT_TRUE(est.ok());
    EXPECT_FALSE(dec.from_sample);
    EXPECT_FALSE(dec.fallback);
    EXPECT_GT(dec.sample_variance, dec.summary_variance);
    auto direct = f.store->summary(dec.index).Answer(q);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(est->expectation, direct->expectation);
    EXPECT_EQ(est->variance, direct->variance);
  }
}

TEST(HybridRouterTest, ZeroSampledRowsFallsBackToSummaryWithFiniteVariance) {
  auto& f = HybridFixture::Get();
  // A nonexistent (A2, A3) cell: the stratified sample has no such
  // stratum, so zero rows match. The miss floor keeps its variance finite
  // AND large enough that the summary wins.
  std::vector<Code> missing;
  for (Code x = 0; x < 12 && missing.empty(); ++x) {
    for (Code y = 0; y < 12 && missing.empty(); ++y) {
      if (x != y && f.cells23.find({x, y}) == f.cells23.end()) {
        missing = {x, y};
      }
    }
  }
  ASSERT_FALSE(missing.empty());
  CountingQuery q = CellQuery(missing[0], missing[1]);
  RouteDecision dec;
  auto est = f.router.Answer(q, &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(dec.from_sample);
  EXPECT_TRUE(std::isfinite(dec.sample_variance));
  EXPECT_GT(dec.sample_variance, 0.0);
  EXPECT_GE(dec.sample_variance, dec.summary_variance);
  // Nothing covers (2, 3) on the summary side: widest-fallback territory.
  EXPECT_TRUE(dec.fallback);
}

TEST(HybridRouterTest, EngineSumRoutesHybrid) {
  auto& f = HybridFixture::Get();
  auto engine = EntropyEngine::FromStore(f.store);
  EXPECT_EQ(engine->num_samples(), 1u);
  std::vector<double> values(8);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 2.0 + i;

  // SUM over a rare (2, 3) stratum: the sample wins the count-variance
  // comparison and serves the aggregate.
  auto rare = f.RareCells(1, 3);
  ASSERT_FALSE(rare.empty());
  size_t sampled = 0;
  for (const auto& cell : rare) {
    CountingQuery q = CellQuery(cell[0], cell[1]);
    RouteDecision dec;
    auto est = engine->Answer(AggregateQuery::Sum(0, values, q), &dec);
    ASSERT_TRUE(est.ok());
    if (!dec.from_sample) continue;
    ++sampled;
    auto direct = f.store->sample_source(dec.sample_index)
                      .Answer(AggregateQuery::Sum(0, values, q));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(est->estimate.expectation, direct->estimate.expectation);
    EXPECT_EQ(est->estimate.variance, direct->estimate.variance);
  }
  EXPECT_GT(sampled, 0u);

  // SUM filtered on the modeled pair stays on the summary.
  CountingQuery broad(4);
  broad.Where(1, AttrPredicate::Point(2));
  RouteDecision dec;
  auto est = engine->Answer(AggregateQuery::Sum(0, values, broad), &dec);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(dec.from_sample);
  auto direct =
      f.store->summary(dec.index).Answer(AggregateQuery::Sum(0, values, broad));
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(est->estimate.expectation, direct->estimate.expectation);
}

TEST(HybridRouterTest, AnswerAllMatchesSerialWithSamples) {
  auto& f = HybridFixture::Get();
  std::vector<CountingQuery> workload;
  for (const auto& cell : f.RareCells(1, 6)) {
    workload.push_back(CellQuery(cell[0], cell[1]));
  }
  for (Code v = 0; v < 6; ++v) {
    CountingQuery q(4);
    q.Where(0, AttrPredicate::Point(v)).Where(1, AttrPredicate::Range(0, v));
    workload.push_back(q);
  }
  // The batched fan-out lives in ShardedStore; over one shard it must
  // route every query to the same source as the serial path, bitwise.
  auto one_shard =
      ShardedStore::FromShards({f.store}, PartitionScheme::kRoundRobin);
  ASSERT_TRUE(one_shard.ok()) << one_shard.status().ToString();
  std::vector<std::vector<RouteDecision>> decisions;
  auto batch = (*one_shard)->AnswerAll(workload, &decisions);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), workload.size());
  size_t to_sample = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    std::vector<RouteDecision> dec;
    auto serial = (*one_shard)->Answer(workload[i], &dec);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].expectation, serial->expectation);
    EXPECT_EQ((*batch)[i].variance, serial->variance);
    EXPECT_EQ(decisions[i][0].from_sample, dec[0].from_sample);
    EXPECT_EQ(decisions[i][0].index, dec[0].index);
    to_sample += dec[0].from_sample ? 1 : 0;
  }
  // The rare cells must still reach the sample through the batched path.
  EXPECT_GT(to_sample, 0u);
}

}  // namespace
}  // namespace entropydb
