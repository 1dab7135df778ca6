// Hybrid routing: a SourceStore holding a maxent summary on one pair and a
// stratified sample on another. Queries on rare strata the summary does
// not model must route to the sample (lower HT variance); broad queries on
// the modeled pair must stay on the summary; a query the sample never saw
// must fall back to the summary with a FINITE sample variance; and every
// routed answer is bitwise the chosen source's own answer.

#include <cmath>
#include <optional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/engine.h"
#include "engine/query_router.h"
#include "query/exact_evaluator.h"
#include "sampling/sample_index.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"

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

/// Stores for the bounded challenge. Three summaries — two tie on (0, 1),
/// so the coverage tie-break runs, and one models (1, 2) — and three
/// companions covering every walk: a stratified (2, 3) sample and a
/// uniform one, both indexed, and a stratified (0, 1) sample without an
/// index (the scan path). `fractional` holds the same sources plus a
/// last companion with weights in (0, 1): the table's rows three times
/// over, the first 150 weighted 4 and the rest 0.5. Its variance terms
/// w (w - 1) are 12 and then -0.25, so its running variance climbs past
/// a summary's and then falls back below it: its walk must not stop.
struct ChallengeFixture {
  std::shared_ptr<Table> table;
  std::shared_ptr<SourceStore> store;
  std::shared_ptr<SourceStore> fractional;

  static ChallengeFixture& Get() {
    static ChallengeFixture* f = [] {
      auto table = HybridTable(4000, 907);
      StatisticSelector selector(SelectionHeuristic::kComposite);
      SummaryOptions sopts;
      sopts.solver.max_iterations = 150;
      struct Modeled {
        AttrId a, b;
        size_t budget;
      };
      const Modeled modeled[] = {{0, 1, 40}, {0, 1, 16}, {1, 2, 30}};
      std::vector<StoreEntry> entries;
      for (const Modeled& m : modeled) {
        auto summary = EntropySummary::Build(
            *table, selector.Select(*table, m.a, m.b, m.budget), sopts);
        EXPECT_TRUE(summary.ok());
        StoreEntry entry;
        entry.summary = *summary;
        entry.pairs = {ScoredPair{m.a, m.b, 0.9, 0.0}};
        entries.push_back(entry);
      }
      std::vector<SampleEntry> samples;
      auto add = [&](Result<WeightedSample> drawn, bool indexed) {
        EXPECT_TRUE(drawn.ok());
        auto sample =
            std::make_shared<WeightedSample>(std::move(drawn).ValueOrDie());
        if (indexed) sample->index = SampleIndex::Build(*sample->rows);
        SampleEntry entry;
        entry.sample = sample;
        samples.push_back(entry);
      };
      add(StratifiedSampler::Create(*table, 2, 3, 0.05, 7), true);
      add(UniformSampler::Create(*table, 0.05, 11), true);
      add(StratifiedSampler::Create(*table, 0, 1, 0.05, 13), false);
      auto store = SourceStore::FromParts(entries, samples);
      EXPECT_TRUE(store.ok());

      std::vector<std::vector<Code>> rows;
      for (int copy = 0; copy < 3; ++copy) {
        for (size_t r = 0; r < table->num_rows(); ++r) {
          std::vector<Code> row(table->num_attributes());
          for (AttrId a = 0; a < row.size(); ++a) row[a] = table->at(r, a);
          rows.push_back(row);
        }
      }
      WeightedSample odd;
      odd.rows = testutil::MakeTable({8, 8, 12, 12}, rows);
      for (size_t r = 0; r < rows.size(); ++r) {
        odd.weights.push_back(r < 150 ? 4.0 : 0.5);
      }
      odd.fraction = 1.0;
      odd.name = "fractional";
      add(std::move(odd), true);
      auto fractional = SourceStore::FromParts(entries, samples);
      EXPECT_TRUE(fractional.ok());
      return new ChallengeFixture{table, *store, *fractional};
    }();
    return *f;
  }

  /// Random points, ranges and IN sets, plus every off-diagonal (2, 3)
  /// cell, where the stratified companion tends to win.
  std::vector<CountingQuery> Workload(size_t random, uint64_t seed) const {
    Rng rng(seed);
    std::vector<CountingQuery> out;
    for (size_t i = 0; i < random; ++i) {
      out.push_back(testutil::RandomQuery(rng, *table));
    }
    for (Code x = 0; x < 12; ++x) {
      for (Code y = 0; y < 12; ++y) {
        if (x != y) out.push_back(CellQuery(x, y));
      }
    }
    return out;
  }
};

/// Stage 3 with every companion walked in full: the first companion of
/// strictly lowest Count variance, taking the query only when strictly
/// below the summary's — the rule the bounded walk must reproduce.
struct FullChallenge {
  bool from_sample = false;
  size_t sample_index = 0;
  QueryEstimate best;

  FullChallenge(const SourceStore& store, const CountingQuery& q,
                double summary_variance) {
    for (size_t s = 0; s < store.num_samples(); ++s) {
      const QueryEstimate e = store.sample_source(s).Count(q);
      if (s == 0 || e.variance < best.variance) {
        best = e;
        sample_index = s;
      }
    }
    from_sample = store.num_samples() > 0 && best.variance < summary_variance;
  }
};

void ExpectSameEstimate(const QueryEstimate& got, const QueryEstimate& want) {
  EXPECT_EQ(got.expectation, want.expectation);
  EXPECT_EQ(got.variance, want.variance);
}

/// The decision's hybrid fields against the full-walk oracle: exact on a
/// sample-won route; on a summary-kept one, a lower bound on the best
/// companion's variance that is never below the summary's. Returns true
/// when a walk stopped early (the reported variance is not the full one).
bool ExpectHybridFields(const RouteDecision& dec, const FullChallenge& want,
                        double summary_variance) {
  EXPECT_EQ(dec.from_sample, want.from_sample);
  EXPECT_EQ(dec.summary_variance, summary_variance);
  if (want.from_sample) {
    EXPECT_EQ(dec.sample_index, want.sample_index);
    EXPECT_EQ(dec.sample_variance, want.best.variance);
    return false;
  }
  EXPECT_GE(dec.sample_variance, dec.summary_variance);
  EXPECT_LE(dec.sample_variance, want.best.variance);
  return dec.sample_variance != want.best.variance;
}

struct ChallengeTally {
  size_t sample_won = 0;
  size_t won_by_last = 0;  // sample-won by the store's last companion
  size_t summary_kept = 0;
  size_t stopped = 0;

  void Add(const SourceStore& store, const FullChallenge& want) {
    const bool last = want.sample_index + 1 == store.num_samples();
    sample_won += want.from_sample;
    won_by_last += want.from_sample && last;
    summary_kept += !want.from_sample;
  }
};

/// COUNT through the router against the full-walk oracle, bitwise.
void ExpectCountMatchesFullWalk(const SourceStore& store,
                                const QueryRouter& router,
                                const CountingQuery& q, ChallengeTally* t) {
  size_t covered = 0;
  const std::vector<size_t> candidates =
      router.CoveringEntries(q.ConstrainedMask(), &covered);
  size_t index = candidates.front();
  QueryEstimate summary_est;
  for (size_t k : candidates) {
    auto est = store.summary(k).Answer(q);
    ASSERT_TRUE(est.ok());
    if (k == candidates.front() || est->variance < summary_est.variance) {
      summary_est = *est;
      index = k;
    }
  }
  const FullChallenge want(store, q, summary_est.variance);

  RouteDecision dec;
  auto got = router.Answer(q, &dec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(dec.index, index);
  t->stopped += ExpectHybridFields(dec, want, summary_est.variance);
  ExpectSameEstimate(*got, want.from_sample ? want.best : summary_est);
  t->Add(store, want);
}

/// SUM through the router against the order it replaced: challenge with
/// the filter count first (every companion walked in full), then answer
/// the winner — the summary with that count handed in. Every field is
/// compared bitwise, so this also pins the summary's shared evaluation.
void ExpectSumMatchesChallengeFirst(const SourceStore& store,
                                    const QueryRouter& router,
                                    const AggregateQuery& q,
                                    ChallengeTally* t) {
  std::optional<QueryEstimate> routed_cnt;
  const size_t index =
      router.RouteEntry(q.where, {q.agg_attr}, nullptr, &routed_cnt);
  const EntropySummary& summary = store.summary(index);
  if (!routed_cnt.has_value()) {
    auto cnt = summary.Answer(q.where);
    ASSERT_TRUE(cnt.ok());
    routed_cnt = *cnt;
  }
  const FullChallenge want(store, q.where, routed_cnt->variance);
  auto expected = want.from_sample
                      ? store.sample_source(want.sample_index).Answer(q)
                      : summary.Answer(q, routed_cnt);
  ASSERT_TRUE(expected.ok());

  RouteDecision dec;
  auto got = router.Answer(q, &dec);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(dec.index, index);
  t->stopped += ExpectHybridFields(dec, want, routed_cnt->variance);
  ExpectSameEstimate(got->estimate, expected->estimate);
  ExpectSameEstimate(got->sum, expected->sum);
  ExpectSameEstimate(got->count, expected->count);
  EXPECT_EQ(got->sum_count_cov, expected->sum_count_cov);
  EXPECT_EQ(dec.expected_variance, expected->estimate.variance);
  t->Add(store, want);
}

std::vector<double> SumValues(AttrId a) {
  std::vector<double> values(a < 2 ? 8 : 12);
  for (size_t v = 0; v < values.size(); ++v) values[v] = 0.5 + 1.5 * v;
  return values;
}

TEST(HybridRouterTest, BoundedChallengeMatchesFullWalks) {
  auto& f = ChallengeFixture::Get();
  for (const auto& store : {f.store, f.fractional}) {
    const bool fractional = store == f.fractional;
    SCOPED_TRACE(fractional ? "fractional" : "monotone");
    QueryRouter router(store);
    ChallengeTally counts, sums;
    size_t i = 0;
    for (const CountingQuery& q : f.Workload(400, 2411)) {
      ExpectCountMatchesFullWalk(*store, router, q, &counts);
      const AttrId a = static_cast<AttrId>(i++ % 4);
      ExpectSumMatchesChallengeFirst(
          *store, router, AggregateQuery::Sum(a, SumValues(a), q), &sums);
    }
    for (const ChallengeTally* t : {&counts, &sums}) {
      EXPECT_GT(t->sample_won, 0u);
      EXPECT_GT(t->summary_kept, 0u);
      if (fractional) {
        // The fractional companion wins routes on its negative terms.
        EXPECT_GT(t->won_by_last, 0u);
      } else {
        // Walks really stop: some reported variances are partial.
        EXPECT_GT(t->stopped, 0u);
      }
    }
  }
}

TEST(HybridRouterTest, BoundedChallengeConcurrentMatchesSerial) {
  auto& f = ChallengeFixture::Get();
  auto engine = EntropyEngine::FromStore(f.fractional);
  std::vector<AggregateQuery> workload;
  size_t i = 0;
  for (const CountingQuery& q : f.Workload(150, 2412)) {
    const AttrId a = static_cast<AttrId>(i++ % 4);
    workload.push_back(AggregateQuery::Count(q));
    workload.push_back(AggregateQuery::Sum(a, SumValues(a), q));
  }
  struct Routed {
    QueryResult result;
    RouteDecision dec;
  };
  auto run = [&](size_t offset, std::vector<Routed>* out) {
    out->assign(workload.size(), Routed{});
    for (size_t k = 0; k < workload.size(); ++k) {
      const size_t j = (k + offset) % workload.size();
      auto r = engine->Answer(workload[j], &(*out)[j].dec);
      if (r.ok()) (*out)[j].result = *r;
    }
  };
  std::vector<Routed> serial;
  run(0, &serial);
  constexpr size_t kThreads = 8;
  std::vector<std::vector<Routed>> parallel(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(run, t * 37, &parallel[t]);
  }
  for (auto& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t k = 0; k < workload.size(); ++k) {
      const Routed& got = parallel[t][k];
      const Routed& want = serial[k];
      ExpectSameEstimate(got.result.estimate, want.result.estimate);
      ExpectSameEstimate(got.result.sum, want.result.sum);
      ExpectSameEstimate(got.result.count, want.result.count);
      EXPECT_EQ(got.result.sum_count_cov, want.result.sum_count_cov);
      EXPECT_EQ(got.dec.from_sample, want.dec.from_sample);
      EXPECT_EQ(got.dec.sample_index, want.dec.sample_index);
      EXPECT_EQ(got.dec.sample_variance, want.dec.sample_variance);
      EXPECT_EQ(got.dec.summary_variance, want.dec.summary_variance);
    }
  }
}

}  // namespace
}  // namespace entropydb
