#include "query/parser.h"

#include <gtest/gtest.h>

namespace entropydb {
namespace {

/// Schema: origin (categorical CA/NY/WA), distance (binned [0,100) x 10),
/// fl_time (binned [0,60) x 6).
std::vector<std::string> Names() { return {"origin", "distance", "fl_time"}; }
std::vector<Domain> Domains() {
  return {Domain::Categorical({"CA", "NY", "WA"}),
          Domain::Binned(0, 100, 10), Domain::Binned(0, 60, 6)};
}

TEST(ParserTest, BareCount) {
  auto q = ParseQuery("COUNT(*)", Names(), Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->aggregate, ParsedQuery::Aggregate::kCount);
  EXPECT_EQ(q->where.NumConstrained(), 0u);
  EXPECT_EQ(q->AggregateName(), "COUNT");
}

TEST(ParserTest, CategoricalEquality) {
  auto q = ParseQuery("COUNT(*) WHERE origin = NY", Names(), Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.predicate(0), AttrPredicate::Point(1));
}

TEST(ParserTest, QuotedLabels) {
  auto q = ParseQuery("COUNT(*) WHERE origin = 'WA'", Names(), Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.predicate(0), AttrPredicate::Point(2));
}

TEST(ParserTest, NumericEqualityBucketizes) {
  auto q = ParseQuery("COUNT(*) WHERE distance = 35", Names(), Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.predicate(1), AttrPredicate::Point(3));
}

TEST(ParserTest, BetweenMapsToBucketRange) {
  auto q = ParseQuery("COUNT(*) WHERE distance BETWEEN 15 AND 44", Names(),
                      Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.predicate(1), AttrPredicate::Range(1, 4));
}

TEST(ParserTest, BetweenOutsideDomainIsEmpty) {
  auto q = ParseQuery("COUNT(*) WHERE distance BETWEEN 500 AND 900", Names(),
                      Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.predicate(1).Selectivity(10), 0u);
}

TEST(ParserTest, InList) {
  auto q = ParseQuery("COUNT(*) WHERE origin IN (CA, WA)", Names(),
                      Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.predicate(0), AttrPredicate::InSet({0, 2}));
}

TEST(ParserTest, ConjunctionOfConditions) {
  auto q = ParseQuery(
      "COUNT(*) WHERE origin = CA AND distance BETWEEN 0 AND 50 AND "
      "fl_time = 10",
      Names(), Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.NumConstrained(), 3u);
}

TEST(ParserTest, SumAndAvg) {
  auto s = ParseQuery("SUM(distance) WHERE origin = CA", Names(), Domains());
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->aggregate, ParsedQuery::Aggregate::kSum);
  EXPECT_EQ(s->agg_attr, 1u);

  auto a = ParseQuery("avg(fl_time)", Names(), Domains());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->aggregate, ParsedQuery::Aggregate::kAvg);
  EXPECT_EQ(a->agg_attr, 2u);
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  auto q = ParseQuery("count(*) where origin = CA and distance between 0 "
                      "and 30",
                      Names(), Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.NumConstrained(), 2u);
}

TEST(ParserTest, ErrorsAreInformative) {
  EXPECT_TRUE(ParseQuery("", Names(), Domains()).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseQuery("SELECT *", Names(), Domains()).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseQuery("COUNT(*) WHERE nope = 1", Names(), Domains())
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ParseQuery("COUNT(*) WHERE origin = XX", Names(), Domains())
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ParseQuery("COUNT(*) WHERE origin", Names(), Domains())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseQuery("COUNT(*) WHERE distance BETWEEN 1", Names(), Domains())
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(
      ParseQuery("COUNT(*) WHERE origin IN (CA", Names(), Domains())
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(ParseQuery("COUNT(*) trailing", Names(), Domains())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseQuery("COUNT(*) WHERE origin = 'unterminated", Names(),
                         Domains())
                  .status()
                  .IsInvalidArgument());
}

TEST(ParserTest, CategoricalBetweenUsesLabelOrder) {
  auto q = ParseQuery("COUNT(*) WHERE origin BETWEEN CA AND NY", Names(),
                      Domains());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.predicate(0), AttrPredicate::Range(0, 1));
}

TEST(ParserTest, ArityMismatchRejected) {
  EXPECT_TRUE(
      ParseQuery("COUNT(*)", {"a"}, {}).status().IsInvalidArgument());
}

TEST(ParserTest, QuantileCarriesRankAndAttr) {
  auto q = ParseQuery("QUANTILE(distance, 0.5) WHERE origin = CA", Names(),
                      Domains());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->aggregate, ParsedQuery::Aggregate::kQuantile);
  EXPECT_EQ(q->agg_attr, 1u);
  EXPECT_DOUBLE_EQ(q->quantile, 0.5);
  EXPECT_EQ(q->where.predicate(0), AttrPredicate::Point(0));
  EXPECT_EQ(q->AggregateName(), "QUANTILE");
}

TEST(ParserTest, TopKCarriesKAndAttr) {
  auto q = ParseQuery("topk(origin, 2)", Names(), Domains());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->aggregate, ParsedQuery::Aggregate::kTopK);
  EXPECT_EQ(q->agg_attr, 0u);
  EXPECT_EQ(q->top_k, 2u);
  EXPECT_EQ(q->AggregateName(), "TOPK");
}

TEST(ParserTest, QuantileAndTopKValidateTheirParameters) {
  // The unknown-verb message is pinned: the server forwards it verbatim as
  // an ERR BAD_REQUEST payload, so a rewording is a wire-visible change.
  EXPECT_EQ(ParseQuery("MEDIAN(distance)", Names(), Domains())
                .status()
                .message(),
            "query must start with COUNT, SUM, AVG, QUANTILE or TOPK");
  EXPECT_EQ(ParseQuery("QUANTILE(distance, 1.5)", Names(), Domains())
                .status()
                .message(),
            "quantile rank must be in (0, 1)");
  EXPECT_EQ(ParseQuery("QUANTILE(distance, 0)", Names(), Domains())
                .status()
                .message(),
            "quantile rank must be in (0, 1)");
  EXPECT_EQ(ParseQuery("TOPK(origin, 0)", Names(), Domains())
                .status()
                .message(),
            "TOPK count must be a positive integer");
  EXPECT_EQ(ParseQuery("TOPK(origin, 2.5)", Names(), Domains())
                .status()
                .message(),
            "TOPK count must be a positive integer");
  EXPECT_TRUE(ParseQuery("QUANTILE(distance)", Names(), Domains())
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseQuery("QUANTILE(nope, 0.5)", Names(), Domains())
                  .status()
                  .IsNotFound());
}

/// Parses `text` against the fixture schema.
Result<ParsedQuery> Parse(const std::string& text) {
  return ParseQuery(text, Names(), Domains());
}

TEST(ParserTest, ExtremeNumbersClampOrFailTyped) {
  // Values past a binned domain clamp to its edge buckets, however large;
  // an unrepresentable literal is OutOfRange, and a TOPK count too large
  // to be exact is refused rather than cast.
  auto huge = Parse("COUNT(*) WHERE distance = 1e300");
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(huge->where.predicate(1), AttrPredicate::Point(9));
  auto all = Parse("COUNT(*) WHERE distance BETWEEN -inf AND inf");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(all->where.predicate(1), AttrPredicate::Range(0, 9));
  EXPECT_TRUE(Parse("COUNT(*) WHERE distance = 1e999").status().IsOutOfRange());
  for (const char* k : {"1e300", "inf", "nan", "9007199254740994"}) {
    const Status st = Parse(std::string("TOPK(origin, ") + k + ")").status();
    EXPECT_EQ(st.message(), "TOPK count must be a positive integer") << k;
  }
  auto widest = Parse("TOPK(origin, 9007199254740992)");
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest->top_k, 9007199254740992u);
}

TEST(ParserTest, ToAggregateQueryBuildsEveryKind) {
  // One conversion for every caller: SUM, AVG and QUANTILE carry the
  // aggregated attribute's BucketWeights, TOPK its k, and every kind the
  // parsed filter.
  const std::vector<Domain> domains = Domains();
  auto expect = [&](const char* text, AggregateKind kind, bool weighted) {
    auto parsed = Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    const AggregateQuery q = ToAggregateQuery(*parsed, domains);
    EXPECT_EQ(q.kind, kind) << text;
    EXPECT_EQ(q.where, parsed->where) << text;
    std::vector<double> weights;
    if (weighted) weights = BucketWeights(domains[parsed->agg_attr]);
    EXPECT_EQ(q.weights, weights) << text;
    if (kind != AggregateKind::kCount) {
      EXPECT_EQ(q.agg_attr, parsed->agg_attr) << text;
    }
  };
  expect("COUNT(*) WHERE origin = NY", AggregateKind::kCount, false);
  expect("SUM(fl_time) WHERE origin = NY", AggregateKind::kSum, true);
  expect("AVG(origin) WHERE fl_time = 25", AggregateKind::kAvg, true);
  expect("QUANTILE(distance, 0.9)", AggregateKind::kQuantile, true);
  expect("TOPK(origin, 2) WHERE distance = 35", AggregateKind::kTopK, false);
  auto quantile = Parse("QUANTILE(distance, 0.9)");
  ASSERT_TRUE(quantile.ok());
  EXPECT_EQ(ToAggregateQuery(*quantile, domains).q, 0.9);
  auto topk = Parse("TOPK(origin, 2)");
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(ToAggregateQuery(*topk, domains).k, 2u);
}

// --- ParseJoinQuery ----------------------------------------------------

/// RIGHT schema for join parses: shares `origin`, adds its own column.
std::vector<std::string> RightNames() { return {"origin", "delay"}; }
std::vector<Domain> RightDomains() {
  return {Domain::Categorical({"CA", "NY", "WA"}), Domain::Binned(0, 30, 3)};
}

Result<ParsedJoinQuery> ParseJoin(const std::string& text) {
  return ParseJoinQuery(text, Names(), Domains(), RightNames(),
                        RightDomains());
}

TEST(JoinParserTest, BareFormJoinsTheSameNameOnBothSides) {
  auto q = ParseJoin("COUNT(*) ON origin");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->aggregate, ParsedJoinQuery::Aggregate::kCount);
  EXPECT_EQ(q->left_join, 0u);
  EXPECT_EQ(q->right_join, 0u);
  EXPECT_EQ(q->AggregateName(), "JOIN_COUNT");
}

TEST(JoinParserTest, ExplicitPairAndSidedPredicates) {
  auto q = ParseJoin(
      "SUM(distance) ON origin = origin WHERE left.distance BETWEEN 10 AND "
      "49 AND right.delay = 5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->aggregate, ParsedJoinQuery::Aggregate::kSum);
  EXPECT_EQ(q->agg_attr, 1u);
  // left.distance lands on the LEFT where; right.delay on the RIGHT.
  EXPECT_EQ(q->left_where.predicate(1), AttrPredicate::Range(1, 4));
  EXPECT_EQ(q->right_where.predicate(1), AttrPredicate::Point(0));
  EXPECT_EQ(q->left_where.NumConstrained(), 1u);
  EXPECT_EQ(q->right_where.NumConstrained(), 1u);
}

TEST(JoinParserTest, SumAttrAcceptsOptionalLeftQualifier) {
  auto q = ParseJoin("SUM(left.distance) ON origin");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->agg_attr, 1u);  // same as the unqualified SUM(distance)
}

TEST(JoinParserTest, ToAggregateQueryBuildsBothJoinKinds) {
  auto count = ParseJoin(
      "COUNT(*) ON origin WHERE left.distance = 35 AND right.delay = 5");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  const AggregateQuery c = ToAggregateQuery(*count, Domains());
  EXPECT_EQ(c.kind, AggregateKind::kJoinCount);
  EXPECT_EQ(c.join_attr, count->left_join);
  EXPECT_EQ(c.right_join_attr, count->right_join);
  EXPECT_EQ(c.where, count->left_where);
  EXPECT_EQ(c.right_where, count->right_where);
  EXPECT_TRUE(c.weights.empty());

  // JOIN_SUM weighs the LEFT-side attribute by its BucketWeights.
  auto sum = ParseJoin("SUM(distance) ON origin WHERE right.delay = 5");
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  const AggregateQuery s = ToAggregateQuery(*sum, Domains());
  EXPECT_EQ(s.kind, AggregateKind::kJoinSum);
  EXPECT_EQ(s.agg_attr, 1u);
  EXPECT_EQ(s.weights, BucketWeights(Domains()[1]));
  EXPECT_EQ(s.right_where, sum->right_where);
}

TEST(JoinParserTest, ErrorsAreInformative) {
  EXPECT_EQ(ParseJoin("AVG(distance) ON origin").status().message(),
            "join query must start with COUNT or SUM");
  EXPECT_TRUE(ParseJoin("COUNT(*)").status().IsInvalidArgument());
  EXPECT_TRUE(ParseJoin("COUNT(*) ON nope").status().IsNotFound());
  // The join attribute must resolve on BOTH sides: `distance` exists on
  // the left only.
  EXPECT_TRUE(ParseJoin("COUNT(*) ON distance").status().IsNotFound());
  // Join predicates must carry a side qualifier — there is no default.
  EXPECT_TRUE(ParseJoin("COUNT(*) ON origin WHERE delay = 5")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseJoin("COUNT(*) ON origin WHERE right.delay = 5").ok());
  EXPECT_TRUE(ParseJoin("COUNT(*) ON origin WHERE middle.delay = 5")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseJoin("COUNT(*) ON origin trailing").status().IsInvalidArgument());
}

}  // namespace
}  // namespace entropydb
