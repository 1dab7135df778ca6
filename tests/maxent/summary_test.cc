#include "maxent/summary.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "../test_util.h"
#include "stats/selector.h"

namespace entropydb {
namespace {

using testutil::RandomDisjointStats;
using testutil::RandomTable;

TEST(SummaryTest, BuildFromTableAnswersSanely) {
  auto table = RandomTable({6, 5, 4}, 1000, 91);
  auto stats = RandomDisjointStats(*table, 0, 1, 6, 92);
  auto summary = EntropySummary::Build(*table, stats);
  ASSERT_TRUE(summary.ok());
  EXPECT_DOUBLE_EQ((*summary)->n(), 1000.0);
  EXPECT_EQ((*summary)->num_attributes(), 3u);
  EXPECT_EQ((*summary)->attr_names()[0], "A0");

  // The whole-table query must return n.
  auto est = (*summary)->Answer(CountingQuery(3));
  ASSERT_TRUE(est.ok());
  EXPECT_NEAR(est->expectation, 1000.0, 1e-6);
}

TEST(SummaryTest, EstimatesTrackTruthOnHeavyRegions) {
  auto table = RandomTable({6, 5}, 2000, 93);
  StatisticSelector sel(SelectionHeuristic::kComposite);
  auto stats = sel.Select(*table, 0, 1, 10);
  auto summary = EntropySummary::Build(*table, stats);
  ASSERT_TRUE(summary.ok());
  ExactEvaluator exact(*table);
  // Aggregate over a coarse region: estimate within 15% of truth.
  CountingQuery q(2);
  q.Where(0, AttrPredicate::Range(0, 2));
  auto est = (*summary)->Answer(q);
  ASSERT_TRUE(est.ok());
  double truth = static_cast<double>(exact.Count(q));
  EXPECT_NEAR(est->expectation, truth, 0.15 * truth + 5.0);
}

class SummaryIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "summary_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".edb";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SummaryIoTest, SaveLoadRoundTripPreservesAnswers) {
  auto table = RandomTable({5, 6, 3}, 800, 94);
  auto stats = RandomDisjointStats(*table, 1, 2, 5, 95);
  auto built = EntropySummary::Build(*table, stats);
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(path_).ok());

  auto loaded = EntropySummary::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ((*loaded)->n(), 800.0);
  EXPECT_EQ((*loaded)->attr_names(), (*built)->attr_names());

  Rng rng(96);
  for (int trial = 0; trial < 25; ++trial) {
    CountingQuery q(3);
    for (AttrId a = 0; a < 3; ++a) {
      if (rng.NextBernoulli(0.5)) continue;
      Code lo = static_cast<Code>(
          rng.Uniform((*built)->registry().domain_size(a)));
      Code hi = lo + static_cast<Code>(rng.Uniform(
                         (*built)->registry().domain_size(a) - lo));
      q.Where(a, AttrPredicate::Range(lo, hi));
    }
    auto e1 = (*built)->Answer(q);
    auto e2 = (*loaded)->Answer(q);
    ASSERT_TRUE(e1.ok());
    ASSERT_TRUE(e2.ok());
    EXPECT_NEAR(e1->expectation, e2->expectation, 1e-9);
    EXPECT_NEAR(e1->variance, e2->variance, 1e-6);
  }
}

TEST_F(SummaryIoTest, LoadRejectsMissingFile) {
  EXPECT_TRUE(
      EntropySummary::Load("/nonexistent/file.edb").status().IsIOError());
}

TEST_F(SummaryIoTest, LoadRejectsBadHeader) {
  ASSERT_TRUE(
      WriteChecksummedFile(Env::Default(), path_, "NOT_A_SUMMARY\n").ok());
  auto loaded = EntropySummary::Load(path_);
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_NE(loaded.status().message().find("bad summary header"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST_F(SummaryIoTest, LoadRejectsTruncatedFile) {
  auto table = RandomTable({4, 4}, 200, 97);
  auto built = EntropySummary::Build(*table, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(path_).ok());
  // Truncate the file in the middle.
  std::ifstream in(path_);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_);
  out << content.substr(0, content.size() / 2);
  out.close();
  EXPECT_FALSE(EntropySummary::Load(path_).ok());
}

TEST_F(SummaryIoTest, RegistryBuiltSummaryHasNoDomains) {
  // FromRegistry summaries carry no raw-value domains; Save/Load must
  // round-trip that state (the CLI refuses raw-value queries on them).
  auto table = RandomTable({4, 5}, 200, 191);
  auto reg = testutil::MakeRegistry(*table, {});
  auto built = EntropySummary::FromRegistry(std::move(reg));
  ASSERT_TRUE(built.ok());
  EXPECT_FALSE((*built)->has_domains());
  ASSERT_TRUE((*built)->Save(path_).ok());
  auto loaded = EntropySummary::Load(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE((*loaded)->has_domains());
  // Code-space queries still work.
  CountingQuery q(2);
  q.Where(0, AttrPredicate::Point(1));
  auto e1 = (*built)->Answer(q);
  auto e2 = (*loaded)->Answer(q);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_NEAR(e1->expectation, e2->expectation, 1e-9);
}

TEST_F(SummaryIoTest, TableBuiltSummaryCarriesDomains) {
  auto table = RandomTable({4, 5}, 200, 192);
  auto built = EntropySummary::Build(*table, {});
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->has_domains());
  EXPECT_EQ((*built)->domains().size(), 2u);
  EXPECT_TRUE((*built)->domains()[1] == table->domain(1));
}

TEST(SummaryTest, GroupByDelegates) {
  auto table = RandomTable({4, 4}, 300, 98);
  auto summary = EntropySummary::Build(*table, {});
  ASSERT_TRUE(summary.ok());
  auto groups =
      (*summary)->AnswerGroupBy({0}, {{0}, {1}}, CountingQuery(2));
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->size(), 2u);
}

TEST(SummaryTest, SolverReportExposed) {
  auto table = RandomTable({4, 4}, 300, 99);
  auto summary = EntropySummary::Build(*table, {});
  ASSERT_TRUE(summary.ok());
  EXPECT_GE((*summary)->solver_report().iterations, 1u);
  EXPECT_TRUE((*summary)->solver_report().converged);
}

}  // namespace
}  // namespace entropydb
