// ShardedStore: sharded-vs-monolithic equivalence fuzzing (merged COUNT/SUM
// estimates and variances must equal the additive per-shard reference),
// MANIFEST round-trips, transparent EntropyEngine::Open dispatch between
// sharded and monolithic directories, and typed manifest rejection.

#include <cmath>
#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/engine.h"
#include "engine/sharded_store.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<Table> CorrelatedTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(4));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(6));
    row[1] = rng.NextBernoulli(0.8) ? row[0]
                                    : static_cast<Code>(rng.Uniform(6));
    row[2] = static_cast<Code>(rng.Uniform(5));
    row[3] = rng.NextBernoulli(0.7) ? (row[2] % 5)
                                    : static_cast<Code>(rng.Uniform(5));
  }
  return testutil::MakeTable({6, 6, 5, 5}, rows);
}

ShardedOptions SmallShardedOptions(size_t shards) {
  ShardedOptions opts;
  opts.num_shards = shards;
  opts.store.num_summaries = 2;
  opts.store.total_budget = 40;
  opts.store.summary.solver.max_iterations = 120;
  opts.store.num_stratified_samples = 1;
  opts.store.uniform_sample = true;
  opts.store.sample_fraction = 0.05;
  return opts;
}

/// Random conjunctive queries over the 4-attribute fixture (point / range /
/// ANY mixes).
std::vector<CountingQuery> FuzzQueries(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<CountingQuery> out;
  const std::vector<uint32_t> dom = {6, 6, 5, 5};
  for (size_t i = 0; i < count; ++i) {
    CountingQuery q(4);
    for (AttrId a = 0; a < 4; ++a) {
      switch (rng.Uniform(4)) {
        case 0:
          q.Where(a,
                  AttrPredicate::Point(static_cast<Code>(rng.Uniform(dom[a]))));
          break;
        case 1: {
          Code lo = static_cast<Code>(rng.Uniform(dom[a]));
          Code hi = static_cast<Code>(rng.Uniform(dom[a]));
          if (hi < lo) std::swap(lo, hi);
          q.Where(a, AttrPredicate::Range(lo, hi));
          break;
        }
        default:
          break;  // ANY
      }
    }
    out.push_back(q);
  }
  return out;
}

TEST(ShardedStoreTest, BuildPartitionsAndSharesSchema) {
  auto table = CorrelatedTable(2000, 211);
  auto sharded = ShardedStore::Build(*table, SmallShardedOptions(4));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ((*sharded)->num_shards(), 4u);
  EXPECT_DOUBLE_EQ((*sharded)->n(), 2000.0);
  // Global pair ranking is forced into every shard: all shards model the
  // same pairs in the same order.
  for (size_t s = 1; s < 4; ++s) {
    ASSERT_EQ((*sharded)->shard(s).size(), (*sharded)->shard(0).size());
    for (size_t k = 0; k < (*sharded)->shard(0).size(); ++k) {
      ASSERT_EQ((*sharded)->shard(s).entry(k).pairs.size(),
                (*sharded)->shard(0).entry(k).pairs.size());
      EXPECT_EQ((*sharded)->shard(s).entry(k).pairs[0].a,
                (*sharded)->shard(0).entry(k).pairs[0].a);
      EXPECT_EQ((*sharded)->shard(s).entry(k).pairs[0].b,
                (*sharded)->shard(0).entry(k).pairs[0].b);
    }
    EXPECT_GT((*sharded)->shard(s).num_samples(), 0u);
  }
}

TEST(ShardedStoreTest, MergedEstimatesMatchAdditiveReferenceFuzz) {
  auto table = CorrelatedTable(2400, 223);
  auto sharded = ShardedStore::Build(*table, SmallShardedOptions(3));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  std::vector<double> weights((*sharded)->domains()[2].size());
  for (size_t v = 0; v < weights.size(); ++v) weights[v] = 1.5 + 0.5 * v;

  for (const CountingQuery& q : FuzzQueries(120, 227)) {
    // Additive reference, computed per shard through each shard's OWN
    // serving engine: disjoint row partitions with independent models sum
    // in both moments.
    double ref_e = 0.0, ref_v = 0.0, ref_se = 0.0, ref_sv = 0.0;
    for (size_t s = 0; s < (*sharded)->num_shards(); ++s) {
      auto cnt = (*sharded)->shard_engine(s).Answer(q);
      ASSERT_TRUE(cnt.ok());
      ref_e += cnt->expectation;
      ref_v += cnt->variance;
      auto sum = (*sharded)->shard_engine(s).Answer(
          AggregateQuery::Sum(2, weights, q));
      ASSERT_TRUE(sum.ok());
      ref_se += sum->estimate.expectation;
      ref_sv += sum->estimate.variance;
    }

    auto merged = (*sharded)->Answer(q);
    ASSERT_TRUE(merged.ok());
    EXPECT_LE(std::abs(merged->expectation - ref_e),
              1e-9 * (1.0 + std::abs(ref_e)));
    EXPECT_LE(std::abs(merged->variance - ref_v),
              1e-9 * (1.0 + std::abs(ref_v)));

    auto merged_sum = (*sharded)->Answer(AggregateQuery::Sum(2, weights, q));
    ASSERT_TRUE(merged_sum.ok());
    EXPECT_LE(std::abs(merged_sum->estimate.expectation - ref_se),
              1e-9 * (1.0 + std::abs(ref_se)));
    EXPECT_LE(std::abs(merged_sum->estimate.variance - ref_sv),
              1e-9 * (1.0 + std::abs(ref_sv)));
  }
}

TEST(ShardedStoreTest, CovarianceAwareAvgMatchesUnshardedReferenceFuzz) {
  auto table = CorrelatedTable(2400, 233);
  auto sharded = ShardedStore::Build(*table, SmallShardedOptions(3));
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  std::vector<double> weights((*sharded)->domains()[2].size());
  for (size_t v = 0; v < weights.size(); ++v) weights[v] = 1.5 + 0.5 * v;

  double max_cov_effect = 0.0;
  for (const CountingQuery& q : FuzzQueries(120, 239)) {
    // Unsharded-style reference: sum every moment leg (S, C, Var S, Var C,
    // Cov(S, C)) across shards, then apply ONE delta method — exactly what
    // a single engine holding all the rows would do with those moments.
    double s_e = 0.0, s_v = 0.0, c_e = 0.0, c_v = 0.0, cov = 0.0;
    for (size_t s = 0; s < (*sharded)->num_shards(); ++s) {
      auto part = (*sharded)->shard_engine(s).Answer(
          AggregateQuery::Avg(2, weights, q));
      ASSERT_TRUE(part.ok()) << part.status().ToString();
      ASSERT_TRUE(part->has_moments);
      s_e += part->sum.expectation;
      s_v += part->sum.variance;
      c_e += part->count.expectation;
      c_v += part->count.variance;
      cov += part->sum_count_cov;
    }

    auto merged = (*sharded)->Answer(AggregateQuery::Avg(2, weights, q));
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    if (c_e <= 0.0) {
      EXPECT_DOUBLE_EQ(merged->estimate.expectation, 0.0);
      continue;
    }
    const double r = s_e / c_e;
    const double ref_var = std::max(
        0.0, (s_v - 2.0 * r * cov + r * r * c_v) / (c_e * c_e));
    EXPECT_LE(std::abs(merged->estimate.expectation - r),
              1e-9 * (1.0 + std::abs(r)));
    EXPECT_LE(std::abs(merged->estimate.variance - ref_var),
              1e-9 * (1.0 + std::abs(ref_var)));

    // The covariance-FREE formula (the pre-fix approximation) must NOT
    // reproduce the reference on correlated data — track how far off it
    // gets across the fuzz set.
    const double naive_var = std::max(0.0, (s_v + r * r * c_v) / (c_e * c_e));
    if (ref_var > 0.0) {
      max_cov_effect = std::max(
          max_cov_effect, std::abs(naive_var - ref_var) / ref_var);
    }
  }
  // Cov(S, C) is materially nonzero on this workload: dropping it moves
  // the AVG variance by well over the merge tolerance.
  EXPECT_GT(max_cov_effect, 1e-3);
}

TEST(ShardedStoreTest, AnswerAllMatchesSerialAnswerBitwise) {
  auto table = CorrelatedTable(1600, 229);
  auto sharded = ShardedStore::Build(*table, SmallShardedOptions(4));
  ASSERT_TRUE(sharded.ok());
  auto qs = FuzzQueries(60, 233);

  std::vector<std::vector<RouteDecision>> decisions;
  auto batch = (*sharded)->AnswerAll(qs, &decisions);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), qs.size());
  ASSERT_EQ(decisions.size(), qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    std::vector<RouteDecision> serial_decs;
    auto serial = (*sharded)->Answer(qs[i], &serial_decs);
    ASSERT_TRUE(serial.ok());
    // The batched grid merges in the same shard order: bitwise equal.
    EXPECT_EQ((*batch)[i].expectation, serial->expectation);
    EXPECT_EQ((*batch)[i].variance, serial->variance);
    ASSERT_EQ(decisions[i].size(), serial_decs.size());
    for (size_t s = 0; s < serial_decs.size(); ++s) {
      EXPECT_EQ(decisions[i][s].index, serial_decs[s].index);
      EXPECT_EQ(decisions[i][s].from_sample, serial_decs[s].from_sample);
      EXPECT_EQ(decisions[i][s].expected_variance,
                serial_decs[s].expected_variance);
    }
  }
}

TEST(ShardedStoreTest, GroupByAttributeMergesAdditively) {
  auto table = CorrelatedTable(1500, 239);
  auto sharded = ShardedStore::Build(*table, SmallShardedOptions(3));
  ASSERT_TRUE(sharded.ok());
  CountingQuery base(4);
  base.Where(0, AttrPredicate::Range(1, 4));

  auto merged = (*sharded)->AnswerGroupByAttribute(1, base);
  ASSERT_TRUE(merged.ok());
  std::vector<double> ref_e(merged->size(), 0.0), ref_v(merged->size(), 0.0);
  for (size_t s = 0; s < (*sharded)->num_shards(); ++s) {
    auto part = (*sharded)->shard_engine(s).AnswerGroupByAttribute(1, base);
    ASSERT_TRUE(part.ok());
    ASSERT_EQ(part->size(), merged->size());
    for (size_t v = 0; v < part->size(); ++v) {
      ref_e[v] += (*part)[v].expectation;
      ref_v[v] += (*part)[v].variance;
    }
  }
  for (size_t v = 0; v < merged->size(); ++v) {
    EXPECT_LE(std::abs((*merged)[v].expectation - ref_e[v]),
              1e-9 * (1.0 + std::abs(ref_e[v])));
    EXPECT_LE(std::abs((*merged)[v].variance - ref_v[v]),
              1e-9 * (1.0 + std::abs(ref_v[v])));
  }
}

TEST(ShardedStoreTest, ManifestV3RoundTripsBitwise) {
  auto table = CorrelatedTable(1800, 241);
  auto built = ShardedStore::Build(*table, SmallShardedOptions(3));
  ASSERT_TRUE(built.ok());

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_sharded_store_test").string();
  fs::remove_all(dir);
  ASSERT_TRUE((*built)->Save(dir).ok());
  ASSERT_TRUE(ShardedStore::IsShardedDir(dir));

  auto loaded = ShardedStore::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_shards(), (*built)->num_shards());
  EXPECT_EQ((*loaded)->scheme(), (*built)->scheme());
  EXPECT_DOUBLE_EQ((*loaded)->n(), (*built)->n());

  for (const CountingQuery& q : FuzzQueries(40, 251)) {
    auto a = (*built)->Answer(q);
    auto b = (*loaded)->Answer(q);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(a->expectation, b->expectation,
                1e-12 * (1.0 + std::abs(a->expectation)));
    EXPECT_NEAR(a->variance, b->variance,
                1e-12 * (1.0 + std::abs(a->variance)));
  }
  fs::remove_all(dir);
}

TEST(ShardedStoreTest, EngineOpenDispatchesShardedVsMonolithic) {
  auto table = CorrelatedTable(1500, 257);

  // Sharded directory -> multi-shard engine.
  auto sharded = ShardedStore::Build(*table, SmallShardedOptions(2));
  ASSERT_TRUE(sharded.ok());
  const std::string sharded_dir =
      (fs::temp_directory_path() / "entropydb_open_sharded_test").string();
  fs::remove_all(sharded_dir);
  ASSERT_TRUE((*sharded)->Save(sharded_dir).ok());
  auto sharded_engine = EntropyEngine::Open(sharded_dir);
  ASSERT_TRUE(sharded_engine.ok()) << sharded_engine.status().ToString();
  EXPECT_EQ((*sharded_engine)->num_shards(), 2u);
  EXPECT_DOUBLE_EQ((*sharded_engine)->n(), 1500.0);

  // Monolithic directory -> one-shard engine.
  StoreOptions mono = SmallShardedOptions(1).store;
  auto store = SourceStore::Build(*table, mono);
  ASSERT_TRUE(store.ok());
  const std::string mono_dir =
      (fs::temp_directory_path() / "entropydb_open_mono_test").string();
  fs::remove_all(mono_dir);
  ASSERT_TRUE((*store)->Save(mono_dir).ok());
  EXPECT_FALSE(ShardedStore::IsShardedDir(mono_dir));
  auto mono_engine = EntropyEngine::Open(mono_dir);
  ASSERT_TRUE(mono_engine.ok());
  EXPECT_EQ((*mono_engine)->num_shards(), 1u);

  // The two layouts answer the same queries through one facade; sharded
  // estimates merge additively so totals track the monolithic ones.
  CountingQuery q(4);
  q.Where(0, AttrPredicate::Point(2)).Where(1, AttrPredicate::Point(2));
  auto sharded_est = (*sharded_engine)->Answer(q);
  auto mono_est = (*mono_engine)->Answer(q);
  ASSERT_TRUE(sharded_est.ok());
  ASSERT_TRUE(mono_est.ok());
  EXPECT_GT(sharded_est->expectation, 0.0);
  EXPECT_GT(mono_est->expectation, 0.0);

  fs::remove_all(sharded_dir);
  fs::remove_all(mono_dir);
}

TEST(ShardedStoreTest, LoadRejectsNonShardedAndCorruptManifests) {
  const std::string dir =
      (fs::temp_directory_path() / "entropydb_sharded_reject_test").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Every manifest below carries a valid footer, so each load fails on
  // the record it names rather than on the checksum.
  auto write_manifest = [&](const std::string& payload) {
    ASSERT_TRUE(WriteChecksummedFile(Env::Default(), dir + "/MANIFEST",
                                     payload)
                    .ok());
  };
  write_manifest("ENTROPYDB_STORE_V4 mono\nsummaries 1\n");
  EXPECT_FALSE(ShardedStore::IsShardedDir(dir));
  EXPECT_TRUE(ShardedStore::Load(dir).status().IsInvalidArgument());
  write_manifest(
      "ENTROPYDB_STORE_V4 sharded\nscheme warp\nwal_sealed 0\nshards 1\n"
      "shard shard_0\nshardrows 1\nshardrow 10\n");
  EXPECT_FALSE(ShardedStore::Load(dir).ok());
  write_manifest(
      "ENTROPYDB_STORE_V4 sharded\nscheme hash\nwal_sealed 0\nshards 0\n");
  auto no_shards = ShardedStore::Load(dir);
  EXPECT_TRUE(no_shards.status().IsCorruption());
  EXPECT_NE(no_shards.status().message().find("bad shards record"),
            std::string::npos)
      << no_shards.status().ToString();
  write_manifest(
      "ENTROPYDB_STORE_V4 sharded\nscheme hash\nwal_sealed 0\nshards 1\n"
      "shard shard_0\n");
  auto no_rows = ShardedStore::Load(dir);
  EXPECT_TRUE(no_rows.status().IsCorruption());
  EXPECT_NE(no_rows.status().message().find("missing shardrows record"),
            std::string::npos)
      << no_rows.status().ToString();
  fs::remove_all(dir);
}

TEST(ShardedStoreTest, FromShardsValidatesSchemaAgreement) {
  auto table = CorrelatedTable(900, 263);
  StoreOptions mono;
  mono.num_summaries = 1;
  mono.total_budget = 20;
  mono.summary.solver.max_iterations = 80;
  auto a = SourceStore::Build(*table, mono);
  ASSERT_TRUE(a.ok());

  // A store over a different relation (other arity) must not merge in.
  auto other = testutil::RandomTable({3, 3}, 300, 269);
  auto b = SourceStore::Build(*other, mono);
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(ShardedStore::FromShards({*a, *b},
                                       PartitionScheme::kRoundRobin)
                  .status()
                  .IsInvalidArgument());
  // Same arity, different domain sizes: also rejected.
  auto skewed = testutil::RandomTable({6, 6, 5, 4}, 900, 271);
  auto c = SourceStore::Build(*skewed, mono);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(ShardedStore::FromShards({*a, *c},
                                       PartitionScheme::kRoundRobin)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ShardedStore::FromShards({}, PartitionScheme::kHash)
                  .status()
                  .IsInvalidArgument());
  // A null shard — even in front position — is rejected, not dereferenced.
  EXPECT_TRUE(ShardedStore::FromShards({nullptr, *a},
                                       PartitionScheme::kRoundRobin)
                  .status()
                  .IsInvalidArgument());
  // A single self-consistent shard is fine (the S = 1 baseline layout).
  EXPECT_TRUE(
      ShardedStore::FromShards({*a}, PartitionScheme::kRoundRobin).ok());
}

}  // namespace
}  // namespace entropydb
