// ZoneMap: presence semantics across both encodings, the density
// cutover, predicate-shape MightMatch, and derivation from per-code
// counts (the 1-D statistics a summary keeps).

#include <gtest/gtest.h>

#include "../test_util.h"
#include "storage/zone_map.h"

namespace entropydb {
namespace {

TEST(ZoneMapTest, RecordsExactPresence) {
  // Attribute 0 touches {0, 2, 5} of a domain of 8; attribute 1 touches
  // every code of its domain of 3.
  auto table = testutil::MakeTable(
      {8, 3}, {{0, 0}, {2, 1}, {5, 2}, {2, 0}, {0, 1}});
  ZoneMap zm = ZoneMap::Build(*table);
  ASSERT_EQ(zm.num_attributes(), 2u);
  EXPECT_EQ(zm.distinct(0), 3u);
  EXPECT_EQ(zm.distinct(1), 3u);
  for (Code c = 0; c < 8; ++c) {
    EXPECT_EQ(zm.Contains(0, c), c == 0 || c == 2 || c == 5) << c;
  }
  for (Code c = 0; c < 3; ++c) EXPECT_TRUE(zm.Contains(1, c));
  // Out-of-domain codes are never present.
  EXPECT_FALSE(zm.Contains(0, 8));
  EXPECT_FALSE(zm.Contains(1, 1000));
}

TEST(ZoneMapTest, DensityPicksTheEncoding) {
  // Attribute 0: 1 distinct code of a domain of 64 — occupancy 1/64 is
  // below the 1/32 cutover, so sparse. Attribute 1: 2 distinct of 64 —
  // exactly AT the cutover (2 * 32 == 64), which is dense (sparse must be
  // strictly cheaper). Attribute 2: full occupancy, dense.
  auto table = testutil::MakeTable({64, 64, 2}, {{7, 1, 0}, {7, 60, 1}});
  ZoneMap zm = ZoneMap::Build(*table);
  EXPECT_EQ(zm.encoding(0), ZoneMap::Encoding::kSparse);
  EXPECT_EQ(zm.encoding(1), ZoneMap::Encoding::kDense);
  EXPECT_EQ(zm.encoding(2), ZoneMap::Encoding::kDense);
}

TEST(ZoneMapTest, RangeLookupBothEncodings) {
  auto table = testutil::MakeTable({256, 8}, {{10, 0}, {200, 3}, {11, 7}});
  ZoneMap zm = ZoneMap::Build(*table);
  ASSERT_EQ(zm.encoding(0), ZoneMap::Encoding::kSparse);
  ASSERT_EQ(zm.encoding(1), ZoneMap::Encoding::kDense);
  // Sparse attribute: presence at {10, 11, 200}.
  EXPECT_TRUE(zm.ContainsAnyInRange(0, 0, 10));
  EXPECT_TRUE(zm.ContainsAnyInRange(0, 11, 199));
  EXPECT_TRUE(zm.ContainsAnyInRange(0, 200, 255));
  EXPECT_FALSE(zm.ContainsAnyInRange(0, 12, 199));
  EXPECT_FALSE(zm.ContainsAnyInRange(0, 201, 255));
  EXPECT_FALSE(zm.ContainsAnyInRange(0, 0, 9));
  // Inverted and fully out-of-domain ranges are empty.
  EXPECT_FALSE(zm.ContainsAnyInRange(0, 20, 10));
  EXPECT_FALSE(zm.ContainsAnyInRange(0, 256, 300));
  // Dense attribute: presence at {0, 3, 7}.
  EXPECT_TRUE(zm.ContainsAnyInRange(1, 1, 3));
  EXPECT_FALSE(zm.ContainsAnyInRange(1, 4, 6));
  EXPECT_TRUE(zm.ContainsAnyInRange(1, 4, 7));
  // hi past the domain clamps.
  EXPECT_TRUE(zm.ContainsAnyInRange(1, 7, 900));
}

TEST(ZoneMapTest, MightMatchCoversEveryPredicateShape) {
  auto table = testutil::MakeTable({8, 4}, {{1, 0}, {2, 0}, {6, 1}});
  ZoneMap zm = ZoneMap::Build(*table);

  CountingQuery any(2);
  EXPECT_TRUE(zm.MightMatch(any));

  CountingQuery hit(2);
  hit.Where(0, AttrPredicate::Point(2));
  EXPECT_TRUE(zm.MightMatch(hit));

  AttrId pruned_attr = 99;
  CountingQuery miss_point(2);
  miss_point.Where(0, AttrPredicate::Point(5));
  EXPECT_FALSE(zm.MightMatch(miss_point, &pruned_attr));
  EXPECT_EQ(pruned_attr, 0u);

  CountingQuery miss_range(2);
  miss_range.Where(0, AttrPredicate::Range(3, 5));
  EXPECT_FALSE(zm.MightMatch(miss_range, &pruned_attr));

  CountingQuery hit_range(2);
  hit_range.Where(0, AttrPredicate::Range(5, 7));
  EXPECT_TRUE(zm.MightMatch(hit_range));

  CountingQuery miss_set(2);
  miss_set.Where(1, AttrPredicate::InSet({2, 3}));
  EXPECT_FALSE(zm.MightMatch(miss_set, &pruned_attr));
  EXPECT_EQ(pruned_attr, 1u);

  CountingQuery hit_set(2);
  hit_set.Where(1, AttrPredicate::InSet({1, 3}));
  EXPECT_TRUE(zm.MightMatch(hit_set));

  // A conjunction prunes as soon as ONE attribute proves the miss, even
  // when the other attribute matches.
  CountingQuery conj(2);
  conj.Where(0, AttrPredicate::Point(1)).Where(1, AttrPredicate::Point(3));
  EXPECT_FALSE(zm.MightMatch(conj, &pruned_attr));
  EXPECT_EQ(pruned_attr, 1u);

  // Arity-mismatched queries never prune (the answer path rejects them
  // with its own typed error).
  CountingQuery wrong_arity(3);
  wrong_arity.Where(0, AttrPredicate::Point(5));
  EXPECT_TRUE(zm.MightMatch(wrong_arity));
}

TEST(ZoneMapTest, FromCountsMarksPositiveCountsPresent) {
  // Attribute 0: a domain of 200 with two positive counts (sparse);
  // attribute 1: a domain of 5 with a zero, a fraction and a full count
  // (dense). The domain size comes from the count vector's length.
  std::vector<std::vector<double>> counts(2);
  counts[0].assign(200, 0.0);
  counts[0][3] = 2.0;
  counts[0][150] = 1.0;
  counts[1] = {1.0, 0.0, 0.5, 0.0, 7.0};
  const ZoneMap zm = ZoneMap::FromCounts(counts);
  ASSERT_EQ(zm.num_attributes(), 2u);
  EXPECT_EQ(zm.domain_size(0), 200u);
  EXPECT_EQ(zm.encoding(0), ZoneMap::Encoding::kSparse);
  EXPECT_EQ(zm.distinct(0), 2u);
  EXPECT_EQ(zm.domain_size(1), 5u);
  EXPECT_EQ(zm.encoding(1), ZoneMap::Encoding::kDense);
  EXPECT_EQ(zm.distinct(1), 3u);
  for (Code c = 0; c < 200; ++c) {
    EXPECT_EQ(zm.Contains(0, c), c == 3 || c == 150) << c;
  }
  for (Code c = 0; c < 5; ++c) {
    EXPECT_EQ(zm.Contains(1, c), counts[1][c] > 0.0) << c;
  }

  // Build is FromCounts over the table's exact per-code histogram.
  auto table = testutil::MakeTable({200, 5}, {{3, 0}, {150, 4}, {3, 2}});
  const ZoneMap built = ZoneMap::Build(*table);
  for (AttrId a = 0; a < 2; ++a) {
    EXPECT_EQ(built.encoding(a), zm.encoding(a));
    EXPECT_EQ(built.distinct(a), zm.distinct(a));
    for (Code c = 0; c < zm.domain_size(a); ++c) {
      EXPECT_EQ(built.Contains(a, c), zm.Contains(a, c)) << a << " " << c;
    }
  }
}

}  // namespace
}  // namespace entropydb
