#include "oracles/tuple_space.h"

#include <gtest/gtest.h>

namespace entropydb {
namespace {

TEST(TupleSpaceTest, SizeIsProductOfDomains) {
  TupleSpace space({2, 3, 4});
  EXPECT_EQ(space.size(), 24u);
  EXPECT_EQ(space.num_attributes(), 3u);
  EXPECT_EQ(space.domain_size(1), 3u);
}

TEST(TupleSpaceTest, IndexRoundTrips) {
  TupleSpace space({3, 4, 5});
  for (uint64_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.IndexOf(space.TupleAt(i)), i);
  }
}

TEST(TupleSpaceTest, LexicographicOrder) {
  TupleSpace space({2, 2});
  EXPECT_EQ(space.TupleAt(0), (std::vector<Code>{0, 0}));
  EXPECT_EQ(space.TupleAt(1), (std::vector<Code>{0, 1}));
  EXPECT_EQ(space.TupleAt(2), (std::vector<Code>{1, 0}));
  EXPECT_EQ(space.TupleAt(3), (std::vector<Code>{1, 1}));
}

}  // namespace
}  // namespace entropydb
