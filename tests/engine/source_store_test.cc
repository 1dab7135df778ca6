// SourceStore: sample companions alongside summaries, MANIFEST
// round-trips, and schema validation of every source.

#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/source_store.h"
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

StoreOptions HybridStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 40;
  opts.summary.solver.max_iterations = 120;
  opts.num_stratified_samples = 2;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.05;
  return opts;
}

TEST(SourceStoreTest, BuildDrawsSampleCompanions) {
  auto table = TwoPairTable(1500, 141);
  auto store = SourceStore::Build(*table, HybridStoreOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->size(), 2u);
  ASSERT_EQ((*store)->num_samples(), 3u);  // 2 stratified + 1 uniform
  // Stratified entries carry the stratification pair; uniform carries none.
  EXPECT_EQ((*store)->sample_entry(0).pairs.size(), 1u);
  EXPECT_EQ((*store)->sample_entry(1).pairs.size(), 1u);
  EXPECT_TRUE((*store)->sample_entry(2).pairs.empty());
  for (size_t s = 0; s < 3; ++s) {
    const SampleEntry& e = (*store)->sample_entry(s);
    EXPECT_GT(e.sample->size(), 0u);
    EXPECT_EQ(e.sample->rows->num_attributes(), 5u);
    EXPECT_NE(e.sample->index, nullptr);
  }
}

TEST(SourceStoreTest, SaveLoadRoundTripsSamplesAndSummaries) {
  auto table = TwoPairTable(1200, 143);
  auto built = SourceStore::Build(*table, HybridStoreOptions());
  ASSERT_TRUE(built.ok());

  const std::string dir =
      (fs::temp_directory_path() / "entropydb_source_store_test").string();
  fs::remove_all(dir);
  ASSERT_TRUE((*built)->Save(dir).ok());
  auto loaded = SourceStore::Load(dir);
  ASSERT_TRUE(loaded.ok());

  ASSERT_EQ((*loaded)->size(), (*built)->size());
  ASSERT_EQ((*loaded)->num_samples(), (*built)->num_samples());
  for (size_t s = 0; s < (*built)->num_samples(); ++s) {
    const WeightedSample& a = *(*built)->sample_entry(s).sample;
    const WeightedSample& b = *(*loaded)->sample_entry(s).sample;
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.fraction, b.fraction);
    ASSERT_EQ(a.size(), b.size());
    for (size_t r = 0; r < a.size(); ++r) {
      EXPECT_DOUBLE_EQ(a.weights[r], b.weights[r]);
      for (AttrId at = 0; at < 5; ++at) {
        EXPECT_EQ(a.rows->at(r, at), b.rows->at(r, at));
      }
    }
    // The restored sample answers queries identically.
    CountingQuery q(5);
    q.Where(2, AttrPredicate::Point(1)).Where(3, AttrPredicate::Point(1));
    auto ea = (*built)->sample_source(s).Answer(q);
    auto eb = (*loaded)->sample_source(s).Answer(q);
    ASSERT_TRUE(ea.ok());
    ASSERT_TRUE(eb.ok());
    EXPECT_EQ(ea->expectation, eb->expectation);
    EXPECT_EQ(ea->variance, eb->variance);
  }
  fs::remove_all(dir);
}

TEST(SourceStoreTest, FromPartsValidatesSamples) {
  auto table = TwoPairTable(600, 149);
  StoreOptions opts;
  opts.num_summaries = 1;
  opts.total_budget = 20;
  opts.summary.solver.max_iterations = 80;
  auto store = SourceStore::Build(*table, opts);
  ASSERT_TRUE(store.ok());
  std::vector<StoreEntry> entries{(*store)->entry(0)};

  // Null sample rejected.
  EXPECT_TRUE(SourceStore::FromParts(entries, {SampleEntry{}})
                  .status()
                  .IsInvalidArgument());

  // Arity-mismatched sample rejected.
  auto narrow = testutil::RandomTable({3, 3}, 100, 151);
  auto bad = StratifiedSampler::Create(*narrow, 0, 1, 0.5, 1);
  ASSERT_TRUE(bad.ok());
  SampleEntry mismatched;
  mismatched.sample =
      std::make_shared<WeightedSample>(std::move(bad).ValueOrDie());
  EXPECT_TRUE(SourceStore::FromParts(entries, {mismatched})
                  .status()
                  .IsInvalidArgument());

  // A store still needs at least one summary, samples or not.
  EXPECT_TRUE(SourceStore::FromParts({}, {}).status().IsInvalidArgument());
}

TEST(SourceStoreTest, RejectsSummariesOfAnotherRelation) {
  // Same arity and n, different domains ({4, 3} vs {7, 3}): a summary of
  // another relation. Admitted, it would make group-by widths, QUANTILE,
  // TOPK and JOIN depend on which entry the router picked.
  auto table = testutil::RandomTable({4, 3}, 300, 153);
  auto other = testutil::RandomTable({7, 3}, 300, 157);
  auto summary = EntropySummary::Build(*table, {});
  auto foreign = EntropySummary::Build(*other, {});
  ASSERT_TRUE(summary.ok());
  ASSERT_TRUE(foreign.ok());
  ASSERT_EQ((*summary)->n(), (*foreign)->n());
  auto mixed = SourceStore::FromEntries(
      {StoreEntry{*summary, {}}, StoreEntry{*foreign, {}}});
  EXPECT_TRUE(mixed.status().IsInvalidArgument());

  // On disk, a MANIFEST that names a foreign summary file is corruption.
  auto store = SourceStore::FromEntries(
      {StoreEntry{*summary, {}}, StoreEntry{*summary, {}}});
  ASSERT_TRUE(store.ok());
  const std::string dir =
      (fs::temp_directory_path() / "entropydb_foreign_entry_test").string();
  fs::remove_all(dir);
  ASSERT_TRUE((*store)->Save(dir).ok());
  ASSERT_TRUE(SourceStore::Load(dir).ok());
  const std::string entry_file = (fs::path(dir) / "summary_1.edb").string();
  ASSERT_TRUE((*foreign)->Save(entry_file).ok());
  auto loaded = SourceStore::Load(dir);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace entropydb
