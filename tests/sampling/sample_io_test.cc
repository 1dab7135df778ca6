// Sample persistence: .eds round trips and the token-format guard.

#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
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

}  // namespace
}  // namespace entropydb
