// Sample persistence: .eds round trips, the token-format guard, and the
// row-group index a load derives from the rows instead of reading it.

#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "sampling/sample_estimator.h"
#include "sampling/sample_io.h"
#include "sampling/stratified_sampler.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

TEST(SampleIoTest, RoundTripPreservesRowsWeightsAndDomains) {
  auto table = testutil::RandomTable({5, 4, 6}, 2000, 401);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.05, 3);
  ASSERT_TRUE(drawn.ok());
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_io_test.eds").string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  auto loaded = LoadSample(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->name, drawn->name);
  EXPECT_DOUBLE_EQ(loaded->fraction, drawn->fraction);
  ASSERT_EQ(loaded->size(), drawn->size());
  for (size_t r = 0; r < drawn->size(); ++r) {
    EXPECT_DOUBLE_EQ(loaded->weights[r], drawn->weights[r]);
    for (AttrId a = 0; a < 3; ++a) {
      EXPECT_EQ(loaded->rows->at(r, a), drawn->rows->at(r, a));
    }
  }
  for (AttrId a = 0; a < 3; ++a) {
    EXPECT_TRUE(loaded->rows->domain(a) == drawn->rows->domain(a));
  }
  fs::remove(path);
}

TEST(SampleIoTest, SaveRejectsWhitespaceNames) {
  auto table = testutil::RandomTable({3, 3}, 200, 403);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.1, 5);
  ASSERT_TRUE(drawn.ok());
  // The format is token-oriented; a name with spaces would save fine but
  // never load again, so Save must refuse it up front.
  drawn->name = "Strat(my attr,dest)";
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_io_bad.eds").string();
  EXPECT_TRUE(SaveSample(*drawn, path).IsInvalidArgument());
}

TEST(SampleIoTest, LoadRejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(LoadSample("/nonexistent/sample.eds").ok());
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_io_corrupt.eds").string();
  ASSERT_TRUE(
      WriteChecksummedFile(Env::Default(), path, "NOT_A_SAMPLE\n").ok());
  auto loaded = LoadSample(path);
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("bad sample header"),
            std::string::npos)
      << loaded.status().ToString();
  fs::remove(path);
}

TEST(SampleIoTest, LoadDerivesTheIndexFromTheRows) {
  auto table = testutil::RandomTable({6, 7, 5}, 3000, 661);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.08, 19);
  ASSERT_TRUE(drawn.ok());
  ASSERT_EQ(drawn->index, nullptr);
  WeightedSample indexed = *drawn;
  indexed.index = SampleIndex::Build(*indexed.rows);
  std::vector<double> values(table->domain(2).size());
  for (size_t v = 0; v < values.size(); ++v) values[v] = 0.25 + 1.75 * v;

  std::vector<std::string> payloads;
  for (const WeightedSample* saved : {&indexed, &*drawn}) {
    const std::string path =
        (fs::temp_directory_path() / "entropydb_sample_io_index.eds")
            .string();
    fs::remove(path);
    ASSERT_TRUE(SaveSample(*saved, path).ok());
    auto payload = ReadChecksummedFile(Env::Default(), path);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    payloads.push_back(*payload);
    auto loaded = LoadSample(path);
    fs::remove(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    // The index is derived from the loaded rows, whatever was saved.
    ASSERT_NE(loaded->index, nullptr);
    const auto rebuilt = SampleIndex::Build(*loaded->rows);
    ASSERT_EQ(loaded->index->num_attributes(), 3u);
    ASSERT_EQ(loaded->index->num_rows(), loaded->size());
    for (AttrId a = 0; a < 3; ++a) {
      EXPECT_EQ(loaded->index->attr(a).offsets, rebuilt->attr(a).offsets);
      EXPECT_EQ(loaded->index->attr(a).perm, rebuilt->attr(a).perm);
    }

    // And it estimates bitwise like the in-memory sample.
    SampleEstimator before(*saved), after(*loaded);
    Rng rng(99);
    for (int trial = 0; trial < 80; ++trial) {
      CountingQuery q = testutil::RandomQuery(rng, *table);
      const QueryEstimate cb = before.Count(q), ca = after.Count(q);
      EXPECT_EQ(cb.expectation, ca.expectation);
      EXPECT_EQ(cb.variance, ca.variance);
      const QueryResult mb = before.Moments(2, values, q);
      const QueryResult ma = after.Moments(2, values, q);
      EXPECT_EQ(mb.sum.expectation, ma.sum.expectation);
      EXPECT_EQ(mb.sum.variance, ma.sum.variance);
      EXPECT_EQ(mb.sum_count_cov, ma.sum_count_cov);
    }
  }
  // The index is never written: both saves are the same bytes, and no
  // line of the file is an index record.
  EXPECT_EQ(payloads[0], payloads[1]);
  EXPECT_EQ(payloads[0].rfind("ENTROPYDB_SAMPLE_V4\n", 0), 0u);
  EXPECT_EQ(payloads[0].find("\nindex"), std::string::npos);
}

TEST(SampleIoTest, TrailingDataAfterTheRowsIsCorruption) {
  // A v3 file's index block under a v4 header (valid footer and all)
  // must fail the load, not be silently skipped.
  auto table = testutil::RandomTable({4, 5}, 600, 737);
  auto drawn = StratifiedSampler::Create(*table, 0, 1, 0.1, 31);
  ASSERT_TRUE(drawn.ok());
  const std::string path =
      (fs::temp_directory_path() / "entropydb_sample_io_trailing.eds")
          .string();
  fs::remove(path);
  ASSERT_TRUE(SaveSample(*drawn, path).ok());
  auto payload = ReadChecksummedFile(Env::Default(), path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  ASSERT_TRUE(
      WriteChecksummedFile(Env::Default(), path, *payload + "index 0\n")
          .ok());
  auto loaded = LoadSample(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("trailing data"),
            std::string::npos)
      << loaded.status().ToString();
  fs::remove(path);
}

}  // namespace
}  // namespace entropydb
