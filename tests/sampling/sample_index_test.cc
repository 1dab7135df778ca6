// The row-group index behind indexed sample evaluation: structural
// invariants, the candidate hand-over (one group's slice or the row
// bitmap), bitwise identity of indexed vs. scan Count/Sum/Moments
// (randomized predicates over stratified + uniform samples, and every
// branch of the indexed walk), .eds round trips, typed rejection of a
// corrupt persisted index, and COUNT/SUM/AVG routing-decision identity
// between an indexed and an unindexed store.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/query_router.h"
#include "engine/sharded_store.h"
#include "engine/source_store.h"
#include "sampling/sample_estimator.h"
#include "sampling/sample_index.h"
#include "sampling/sample_io.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

using testutil::RandomQuery;

/// The same sample with and without its index attached.
std::pair<WeightedSample, WeightedSample> IndexedAndScan(
    const WeightedSample& drawn) {
  WeightedSample indexed = drawn;
  indexed.index = SampleIndex::Build(*indexed.rows);
  WeightedSample scan = drawn;
  scan.index = nullptr;
  return {std::move(indexed), std::move(scan)};
}

TEST(SampleIndexTest, BuildGroupsEveryRowAscendingByCode) {
  auto table = testutil::RandomTable({6, 5, 9}, 3000, 811);
  auto index = SampleIndex::Build(*table);
  ASSERT_EQ(index->num_attributes(), 3u);
  ASSERT_EQ(index->num_rows(), table->num_rows());
  for (AttrId a = 0; a < 3; ++a) {
    const SampleIndex::AttrIndex& idx = index->attr(a);
    ASSERT_EQ(idx.offsets.size(), table->domain(a).size() + 1);
    EXPECT_EQ(idx.offsets.front(), 0u);
    EXPECT_EQ(idx.offsets.back(), table->num_rows());
    for (Code c = 0; c < table->domain(a).size(); ++c) {
      for (uint32_t i = idx.offsets[c]; i < idx.offsets[c + 1]; ++i) {
        EXPECT_EQ(table->at(idx.perm[i], a), c);
        if (i > idx.offsets[c]) {
          EXPECT_LT(idx.perm[i - 1], idx.perm[i]);
        }
      }
    }
  }
}

TEST(SampleIndexTest, CandidateCountMatchesPredicateSemantics) {
  auto table = testutil::RandomTable({7, 4}, 1200, 977);
  auto index = SampleIndex::Build(*table);
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    CountingQuery q = RandomQuery(rng, *table);
    for (AttrId a = 0; a < 2; ++a) {
      size_t expected = 0;
      for (size_t r = 0; r < table->num_rows(); ++r) {
        expected += q.predicate(a).Matches(table->at(r, a)) ? 1 : 0;
      }
      EXPECT_EQ(index->CandidateCount(a, q.predicate(a)), expected);
    }
  }
  // Out-of-domain predicates match nothing.
  EXPECT_EQ(index->CandidateCount(0, AttrPredicate::Point(99)), 0u);
  EXPECT_EQ(index->CandidateCount(0, AttrPredicate::Range(90, 99)), 0u);
}

TEST(SampleIndexTest, IndexedCountAndSumAreBitwiseEqualToScan) {
  auto table = testutil::RandomTable({12, 8, 15, 6}, 20000, 1031);
  auto strat = StratifiedSampler::Create(*table, 0, 2, 0.05, 11);
  auto uni = UniformSampler::Create(*table, 0.05, 13);
  ASSERT_TRUE(strat.ok());
  ASSERT_TRUE(uni.ok());
  std::vector<double> values(table->domain(1).size());
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.5 + 1.5 * i;

  for (const WeightedSample* drawn :
       {&*strat, &*uni}) {
    auto [indexed, scan] = IndexedAndScan(*drawn);
    SampleEstimator with_index(indexed);
    SampleEstimator without(scan);
    Rng rng(4242);
    size_t zero_matches = 0;
    for (int trial = 0; trial < 300; ++trial) {
      CountingQuery q = RandomQuery(rng, *table);
      const QueryEstimate a = with_index.Count(q);
      const QueryEstimate b = without.Count(q);
      // Bitwise: EXPECT_EQ on doubles, not NEAR — the accumulation order
      // must be identical, not merely close.
      EXPECT_EQ(a.expectation, b.expectation);
      EXPECT_EQ(a.variance, b.variance);
      const QueryEstimate sa = with_index.Sum(1, values, q);
      const QueryEstimate sb = without.Sum(1, values, q);
      EXPECT_EQ(sa.expectation, sb.expectation);
      EXPECT_EQ(sa.variance, sb.variance);
      zero_matches += b.expectation == 0.0 ? 1 : 0;
    }
    // The workload must exercise the miss floor too.
    EXPECT_GT(zero_matches, 0u);
  }
}

/// A sample of exactly `n` rows with distinct non-unit weights, so a
/// skipped, repeated or reordered row shows in the last bits. Attribute
/// 0 takes r (r + 3) mod 7: codes 0, 3, 4 and 5 only, leaving empty
/// groups between and after them. Attribute 1 cycles r mod 4, so a
/// two-code range on it holds exactly half of a multiple-of-4 sample.
/// Attribute 2 is random.
WeightedSample WalkSample(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> raw(n, std::vector<Code>(3));
  for (size_t r = 0; r < n; ++r) {
    raw[r][0] = static_cast<Code>(r * (r + 3) % 7);
    raw[r][1] = static_cast<Code>(r % 4);
    raw[r][2] = static_cast<Code>(rng.Uniform(6));
  }
  WeightedSample sample;
  sample.rows = testutil::MakeTable({8, 4, 6}, raw);
  for (size_t r = 0; r < n; ++r) {
    sample.weights.push_back(1.0 + 9.0 * rng.NextDouble());
  }
  sample.fraction = 0.1;
  sample.name = "walk";
  return sample;
}

/// Every range and every two-code set over attributes 0 and 1, alone and
/// with a residual point or range on attribute 2.
std::vector<CountingQuery> WalkQueries() {
  std::vector<AttrPredicate> residuals = {
      AttrPredicate::Any(), AttrPredicate::Point(2),
      AttrPredicate::Range(1, 4)};
  std::vector<CountingQuery> out;
  for (AttrId a : {0u, 1u}) {
    const Code dom = a == 0 ? 8 : 4;
    std::vector<AttrPredicate> preds;
    for (Code lo = 0; lo < dom; ++lo) {
      for (Code hi = lo; hi < dom; ++hi) {
        preds.push_back(AttrPredicate::Range(lo, hi));
        if (hi > lo) preds.push_back(AttrPredicate::InSet({lo, hi}));
      }
    }
    for (const AttrPredicate& pred : preds) {
      for (const AttrPredicate& residual : residuals) {
        CountingQuery q(3);
        q.Where(a, pred).Where(2, residual);
        out.push_back(q);
      }
    }
  }
  return out;
}

/// The rows of `t` whose code on `a` satisfies `pred`, ascending.
std::vector<uint32_t> MatchingRows(const Table& t, AttrId a,
                                   const AttrPredicate& pred) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    if (pred.Matches(t.at(r, a))) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

TEST(SampleIndexTest, MarkRowsHandsOverExactlyTheCandidatesInRowOrder) {
  // Set predicates over non-adjacent groups (e.g. codes 0 and 4 of
  // attribute 0, across the empty groups 1-2 and the non-empty group 3).
  size_t sets_in_bitmap = 0;
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 4097u}) {
    SCOPED_TRACE("sample rows " + std::to_string(n));
    const WeightedSample sample = WalkSample(n, 17 + n);
    const auto index = SampleIndex::Build(*sample.rows);
    const Table& t = *sample.rows;
    for (const CountingQuery& q : WalkQueries()) {
      const AttrId a = q.predicate(0).is_any() ? 1 : 0;
      const AttrPredicate& pred = q.predicate(a);
      const std::vector<uint32_t> expected = MatchingRows(t, a, pred);
      std::vector<uint8_t> codes_seen(8, 0);
      for (uint32_t r : expected) codes_seen[t.at(r, a)] = 1;
      const size_t groups =
          std::count(codes_seen.begin(), codes_seen.end(), uint8_t{1});

      // Stale words from an earlier query: MarkRows must clear them.
      const std::vector<uint64_t> stale(3, ~uint64_t{0});
      std::vector<uint64_t> bits = stale;
      SampleIndex::RowSpan single;
      ASSERT_EQ(index->MarkRows(a, pred, &single, &bits), groups);
      if (groups <= 1) {
        EXPECT_EQ(std::vector<uint32_t>(single.begin, single.end), expected);
        EXPECT_EQ(bits, stale);
        continue;
      }
      EXPECT_EQ(single.begin, single.end);
      ASSERT_EQ(bits.size(), (n + 63) / 64);
      std::vector<uint32_t> walked;
      for (size_t w = 0; w < bits.size(); ++w) {
        for (uint32_t bit = 0; bit < 64; ++bit) {
          if ((bits[w] >> bit) & 1) walked.push_back(w * 64 + bit);
        }
      }
      // Exactly the candidates, and no bit past the last row.
      EXPECT_EQ(walked, expected);
      if (pred.kind() == AttrPredicate::Kind::kSet &&
          pred.set().back() > pred.set().front() + 1) {
        ++sets_in_bitmap;
      }
    }
  }
  EXPECT_GT(sets_in_bitmap, 0u);
}

TEST(SampleIndexTest, EveryIndexedWalkIsBitwiseTheScanIncludingMoments) {
  enum Plan { kNoGroup, kOneGroup, kSeveralGroups, kExactlyHalf, kOverHalf };
  std::vector<size_t> plans(5, 0);
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 4097u}) {
    SCOPED_TRACE("sample rows " + std::to_string(n));
    auto [indexed, scan] = IndexedAndScan(WalkSample(n, 29 + n));
    const SampleIndex& index = *indexed.index;
    SampleEstimator with_index(indexed);
    SampleEstimator without(scan);
    const std::vector<double> values = {-2.5, 0.0, 0.75, 3.0, 11.5, 40.25};
    for (const CountingQuery& q : WalkQueries()) {
      // Which branch the indexed plan takes for this query.
      AttrId chosen = 0;
      size_t candidates = 0;
      ASSERT_TRUE(index.BestAttribute(q, &chosen, &candidates));
      if (n == 0) {
        // An empty sample always scans (its zero rows).
      } else if (2 * candidates > n) {
        ++plans[kOverHalf];
      } else if (2 * candidates == n) {
        ++plans[kExactlyHalf];
      } else {
        std::vector<uint64_t> bits;
        SampleIndex::RowSpan single;
        const size_t groups =
            index.MarkRows(chosen, q.predicate(chosen), &single, &bits);
        ++plans[groups == 0 ? kNoGroup
                            : groups == 1 ? kOneGroup : kSeveralGroups];
      }

      const QueryEstimate ci = with_index.Count(q), cs = without.Count(q);
      EXPECT_EQ(ci.expectation, cs.expectation);
      EXPECT_EQ(ci.variance, cs.variance);
      const QueryEstimate si = with_index.Sum(2, values, q);
      const QueryEstimate ss = without.Sum(2, values, q);
      EXPECT_EQ(si.expectation, ss.expectation);
      EXPECT_EQ(si.variance, ss.variance);
      for (const SampleEstimator* est : {&with_index, &without}) {
        // A winning sample answers SUM through Moments: its legs must be
        // bitwise the separate Count and Sum calls, indexed or not.
        const QueryResult m = est->Moments(2, values, q);
        EXPECT_TRUE(m.has_moments);
        EXPECT_EQ(m.count.expectation, cs.expectation);
        EXPECT_EQ(m.count.variance, cs.variance);
        EXPECT_EQ(m.sum.expectation, ss.expectation);
        EXPECT_EQ(m.sum.variance, ss.variance);
      }
      EXPECT_EQ(with_index.Moments(2, values, q).sum_count_cov,
                without.Moments(2, values, q).sum_count_cov);
    }
  }
  // Every branch of the indexed walk ran, and so did the cutover on
  // both sides of its boundary.
  for (size_t p = 0; p < plans.size(); ++p) {
    EXPECT_GT(plans[p], 0u) << "plan " << p << " never ran";
  }
}

TEST(SampleIndexTest, FromPartsRejectsCorruptIndexes) {
  auto table = testutil::RandomTable({5, 4}, 400, 551);
  auto good = SampleIndex::Build(*table);
  // Shape mismatch.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0)};
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs))
                    .status()
                    .IsCorruption());
  }
  // Row in the wrong group.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0), good->attr(1)};
    std::swap(attrs[0].perm[0], attrs[0].perm[attrs[0].perm.size() - 1]);
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs))
                    .status()
                    .IsCorruption());
  }
  // Offsets not ending at the row count.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0), good->attr(1)};
    attrs[1].offsets.back() -= 1;
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs))
                    .status()
                    .IsCorruption());
  }
  // The untouched parts pass.
  {
    std::vector<SampleIndex::AttrIndex> attrs{good->attr(0), good->attr(1)};
    EXPECT_TRUE(SampleIndex::FromParts(*table, std::move(attrs)).ok());
  }
}

TEST(SampleIndexTest, EdsV2RoundTripsTheIndex) {
  auto table = testutil::RandomTable({6, 7, 5}, 3000, 661);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.08, 19);
  ASSERT_TRUE(drawn.ok());
  drawn->index = SampleIndex::Build(*drawn->rows);
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_index_v2.eds").string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  auto loaded = LoadSample(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->index, nullptr);
  ASSERT_EQ(loaded->index->num_attributes(), 3u);
  for (AttrId a = 0; a < 3; ++a) {
    EXPECT_EQ(loaded->index->attr(a).offsets, drawn->index->attr(a).offsets);
    EXPECT_EQ(loaded->index->attr(a).perm, drawn->index->attr(a).perm);
  }
  // And the loaded estimator answers bitwise like the in-memory one.
  SampleEstimator before(*drawn), after(*loaded);
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    CountingQuery q = RandomQuery(rng, *table);
    EXPECT_EQ(before.Count(q).expectation, after.Count(q).expectation);
    EXPECT_EQ(before.Count(q).variance, after.Count(q).variance);
  }
  fs::remove(path);
}

TEST(SampleIndexTest, IndexlessSamplesSaveAsV2WithoutIndex) {
  auto table = testutil::RandomTable({4, 4}, 500, 663);
  auto drawn = UniformSampler::Create(*table, 0.1, 23);
  ASSERT_TRUE(drawn.ok());
  ASSERT_EQ(drawn->index, nullptr);
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_noindex.eds").string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  auto loaded = LoadSample(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // "index 0" is an explicit builder choice (--sample-index off), honored
  // on load rather than rebuilt.
  EXPECT_EQ(loaded->index, nullptr);
  fs::remove(path);
}

TEST(SampleIndexTest, CorruptV2IndexFailsTheLoad) {
  auto table = testutil::RandomTable({4, 5}, 600, 737);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.1, 31);
  ASSERT_TRUE(drawn.ok());
  drawn->index = SampleIndex::Build(*drawn->rows);
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_badidx.eds").string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  // Flip one permutation entry: the row lands in a group whose code it
  // does not carry. The load must fail loudly, not serve skewed answers.
  // It runs with checksum verification off, so the failure exercises the
  // index-invariant validation, not the (now stale) CRC footer.
  {
    std::ifstream in(path);
    std::stringstream body;
    body << in.rdbuf();
    std::string text = body.str();
    const size_t perm_at = text.find("\nperm ");
    ASSERT_NE(perm_at, std::string::npos);
    const size_t first = perm_at + 6;
    const size_t end = text.find_first_of(" \n", first);
    const uint32_t r = static_cast<uint32_t>(
        std::stoul(text.substr(first, end - first)));
    const uint32_t other = (r + 1) % static_cast<uint32_t>(drawn->size());
    text.replace(first, end - first, std::to_string(other));
    std::ofstream out(path);
    out << text;
  }
  auto loaded = LoadSample(path, Env::Default(), /*verify_checksums=*/false);
  // Either the swap broke a group invariant (the common case) or, in the
  // degenerate case where codes happen to agree, ordering broke instead;
  // both are Corruption.
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_EQ(loaded.status().message().find("checksum"), std::string::npos)
      << loaded.status().ToString();
  fs::remove(path);
}

TEST(SampleIndexTest, RoutingDecisionsAndAnswerAllIdenticalWithIndexes) {
  // Planted correlations (the hybrid-router fixture's shape): (2, 3) is
  // strongly diagonal, so its rare off-diagonal cells are exactly where a
  // stratified sample beats a summary and routing flips to the sample.
  Rng gen(1999);
  std::vector<std::vector<Code>> raw(8000, std::vector<Code>(4));
  for (auto& row : raw) {
    row[0] = static_cast<Code>(gen.Uniform(8));
    row[1] = gen.NextBernoulli(0.9) ? row[0]
                                    : static_cast<Code>(gen.Uniform(8));
    row[2] = static_cast<Code>(gen.Uniform(10));
    row[3] = gen.NextBernoulli(0.95) ? row[2]
                                     : static_cast<Code>(gen.Uniform(10));
  }
  auto table = testutil::MakeTable({8, 8, 10, 10}, raw);
  StoreOptions with, without;
  with.num_summaries = without.num_summaries = 2;
  with.total_budget = without.total_budget = 160;
  with.num_stratified_samples = without.num_stratified_samples = 2;
  with.uniform_sample = without.uniform_sample = true;
  with.sample_fraction = without.sample_fraction = 0.05;
  with.summary.solver.max_iterations =
      without.summary.solver.max_iterations = 80;
  with.sample_index = true;
  without.sample_index = false;
  auto indexed = SourceStore::Build(*table, with);
  auto scan = SourceStore::Build(*table, without);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scan.ok());
  ASSERT_GT((*indexed)->num_samples(), 0u);
  for (size_t s = 0; s < (*indexed)->num_samples(); ++s) {
    EXPECT_NE((*indexed)->sample_entry(s).sample->index, nullptr);
    EXPECT_EQ((*scan)->sample_entry(s).sample->index, nullptr);
  }

  // Random predicate mixes PLUS rare off-diagonal (2, 3) cells — the
  // selective slice the hybrid stage routes to the stratified sample.
  std::vector<CountingQuery> workload;
  Rng rng(555);
  for (int trial = 0; trial < 90; ++trial) {
    workload.push_back(RandomQuery(rng, *table));
  }
  ExactEvaluator exact(*table);
  for (const auto& [key, count] : exact.GroupByCount({2, 3})) {
    if (key[0] == key[1] || count > 4) continue;
    CountingQuery q(4);
    q.Where(2, AttrPredicate::Point(key[0]))
        .Where(3, AttrPredicate::Point(key[1]));
    workload.push_back(q);
    if (workload.size() >= 120) break;
  }
  // Wide one-attribute ranges (20-40% of the rows): several row groups
  // each, walked through the row bitmap.
  for (AttrId a = 0; a < 4; ++a) {
    const Code dom = a < 2 ? 8 : 10;
    for (Code width = dom / 4; width <= (dom + 2) / 3; ++width) {
      for (Code lo = 0; lo + width <= dom; lo += 2) {
        CountingQuery q(4);
        q.Where(a, AttrPredicate::Range(lo, lo + width - 1));
        workload.push_back(q);
      }
    }
  }

  QueryRouter indexed_router(*indexed), scan_router(*scan);
  size_t to_sample = 0;
  for (const CountingQuery& q : workload) {
    RouteDecision di, ds;
    auto ei = indexed_router.Answer(q, &di);
    auto es = scan_router.Answer(q, &ds);
    ASSERT_TRUE(ei.ok());
    ASSERT_TRUE(es.ok());
    // The ROADMAP's bar: the index must never change which source wins,
    // nor the answer — bitwise.
    EXPECT_EQ(ei->expectation, es->expectation);
    EXPECT_EQ(ei->variance, es->variance);
    EXPECT_EQ(di.from_sample, ds.from_sample);
    EXPECT_EQ(di.index, ds.index);
    EXPECT_EQ(di.sample_index, ds.sample_index);
    EXPECT_EQ(di.summary_variance, ds.summary_variance);
    EXPECT_EQ(di.sample_variance, ds.sample_variance);
    to_sample += di.from_sample ? 1 : 0;
  }
  // The workload must actually exercise the hybrid stage both ways.
  EXPECT_GT(to_sample, 0u);
  EXPECT_LT(to_sample, workload.size());

  // SUM challenges the samples on the filter count and, when a sample
  // wins, answers through its Moments; AVG stays on the summaries. Both
  // must route and answer bitwise alike over indexed and scanned
  // companions.
  std::vector<double> weights(8);
  for (size_t v = 0; v < weights.size(); ++v) weights[v] = 0.5 + 1.5 * v;
  size_t sums_to_sample = 0;
  for (const CountingQuery& q : workload) {
    for (const AggregateQuery& agg : {AggregateQuery::Sum(1, weights, q),
                                      AggregateQuery::Avg(1, weights, q)}) {
      RouteDecision di, ds;
      auto ri = indexed_router.Answer(agg, &di);
      auto rs = scan_router.Answer(agg, &ds);
      ASSERT_TRUE(ri.ok()) << ri.status().ToString();
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(ri->estimate.expectation, rs->estimate.expectation);
      EXPECT_EQ(ri->estimate.variance, rs->estimate.variance);
      EXPECT_EQ(ri->sum.expectation, rs->sum.expectation);
      EXPECT_EQ(ri->sum.variance, rs->sum.variance);
      EXPECT_EQ(ri->count.expectation, rs->count.expectation);
      EXPECT_EQ(ri->count.variance, rs->count.variance);
      EXPECT_EQ(ri->sum_count_cov, rs->sum_count_cov);
      EXPECT_EQ(di.from_sample, ds.from_sample);
      EXPECT_EQ(di.index, ds.index);
      EXPECT_EQ(di.sample_index, ds.sample_index);
      EXPECT_EQ(di.summary_variance, ds.summary_variance);
      EXPECT_EQ(di.sample_variance, ds.sample_variance);
      if (agg.kind == AggregateKind::kSum) {
        sums_to_sample += di.from_sample ? 1 : 0;
      }
    }
  }
  EXPECT_GT(sums_to_sample, 0u);

  // Concurrent fan-out over the indexed store: indexed evaluation keeps
  // its candidate scratch thread-local, so the batched answers must be
  // bitwise the serial ones. (The AnswerAll name keeps this inside the
  // TSan CI job's filter.)
  auto one_shard =
      ShardedStore::FromShards({*indexed}, PartitionScheme::kRoundRobin);
  ASSERT_TRUE(one_shard.ok()) << one_shard.status().ToString();
  std::vector<std::vector<RouteDecision>> batch_decisions;
  auto batch = (*one_shard)->AnswerAll(workload, &batch_decisions);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < workload.size(); ++i) {
    std::vector<RouteDecision> dec;
    auto serial = (*one_shard)->Answer(workload[i], &dec);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ((*batch)[i].expectation, serial->expectation);
    EXPECT_EQ((*batch)[i].variance, serial->variance);
    EXPECT_EQ(batch_decisions[i][0].from_sample, dec[0].from_sample);
  }
}

}  // namespace
}  // namespace entropydb
