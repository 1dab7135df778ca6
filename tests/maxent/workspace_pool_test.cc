// Tests for the lock-free workspace pool: slot claiming, overflow, and —
// the load-bearing property — bitwise-stable estimates when many threads
// hammer ONE summary concurrently (the old design serialized them behind a
// mutex; the pool must scale without perturbing a single bit).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "maxent/answerer.h"
#include "maxent/solver.h"
#include "maxent/workspace_pool.h"

namespace entropydb {
namespace {

using testutil::MakeRegistry;
using testutil::RandomDisjointStats;
using testutil::RandomTable;

struct Solved {
  VariableRegistry reg;
  CompressedPolynomial poly;
  ModelState state;
};

Solved SolveFor(uint64_t seed) {
  auto table = RandomTable({6, 6, 5, 4}, 800, seed);
  auto stats = RandomDisjointStats(*table, 0, 1, 6, seed + 1);
  auto more = RandomDisjointStats(*table, 2, 3, 4, seed + 2);
  stats.insert(stats.end(), more.begin(), more.end());
  auto reg = MakeRegistry(*table, std::move(stats));
  auto poly = CompressedPolynomial::Build(reg);
  EXPECT_TRUE(poly.ok());
  ModelState st = ModelState::InitialState(reg);
  SolverOptions opts;
  opts.max_iterations = 150;
  EXPECT_TRUE(MaxEntSolver(reg, *poly, opts).Solve(&st).ok());
  return Solved{std::move(reg), std::move(*poly), std::move(st)};
}

TEST(WorkspacePoolTest, WarmsOnceAndSharesTheFactorCache) {
  Solved s = SolveFor(301);
  WorkspacePool pool(s.poly, s.state, 3);
  EXPECT_EQ(pool.capacity(), 3u);
  // The eager warm-up's unmasked P matches a fresh evaluation.
  EXPECT_DOUBLE_EQ(pool.full_value(), s.poly.EvaluateUnmasked(s.state).value);

  // Every slot (lazily warmed or not) answers identically.
  CountingQuery q(4);
  q.Where(0, AttrPredicate::Point(2)).Where(2, AttrPredicate::Range(1, 3));
  std::vector<double> values;
  {
    auto l1 = pool.Acquire();
    auto l2 = pool.Acquire();
    auto l3 = pool.Acquire();
    EXPECT_FALSE(l1.is_overflow());
    EXPECT_FALSE(l2.is_overflow());
    EXPECT_FALSE(l3.is_overflow());
    values.push_back(s.poly.MaskedEvaluate(s.state, q, l1.get()).value);
    values.push_back(s.poly.MaskedEvaluate(s.state, q, l2.get()).value);
    values.push_back(s.poly.MaskedEvaluate(s.state, q, l3.get()).value);
  }
  EXPECT_EQ(values[0], values[1]);
  EXPECT_EQ(values[0], values[2]);
}

TEST(WorkspacePoolTest, OverflowsWithoutBlockingAndMatches) {
  Solved s = SolveFor(303);
  WorkspacePool pool(s.poly, s.state, 2);
  CountingQuery q(4);
  q.Where(1, AttrPredicate::Range(0, 2));

  auto l1 = pool.Acquire();
  auto l2 = pool.Acquire();
  auto l3 = pool.Acquire();  // all slots busy: transient workspace
  EXPECT_FALSE(l1.is_overflow());
  EXPECT_FALSE(l2.is_overflow());
  EXPECT_TRUE(l3.is_overflow());
  const double slot_value = s.poly.MaskedEvaluate(s.state, q, l1.get()).value;
  const double over_value = s.poly.MaskedEvaluate(s.state, q, l3.get()).value;
  EXPECT_EQ(slot_value, over_value);
}

TEST(WorkspacePoolTest, SlotIsReusableAfterRelease) {
  Solved s = SolveFor(305);
  WorkspacePool pool(s.poly, s.state, 2);
  { auto l = pool.Acquire(); }
  { auto l = pool.Acquire(); }
  auto l1 = pool.Acquire();
  auto l2 = pool.Acquire();
  EXPECT_FALSE(l1.is_overflow());
  EXPECT_FALSE(l2.is_overflow());
  EXPECT_NE(l1.get(), l2.get());
}

// The multi-threaded stress test of the ISSUE: T threads, each answering
// the same mixed workload in a different order through ONE QueryAnswerer,
// must reproduce the serial reference estimates bit for bit.
TEST(WorkspacePoolTest, ConcurrentQueriesAreBitwiseStable) {
  Solved s = SolveFor(307);
  QueryAnswerer answerer(s.reg, s.poly, s.state);

  // A workload mixing point, range, and multi-attribute queries.
  std::vector<CountingQuery> workload;
  for (Code v = 0; v < 6; ++v) {
    CountingQuery q(4);
    q.Where(0, AttrPredicate::Point(v));
    workload.push_back(q);
  }
  for (Code lo = 0; lo < 4; ++lo) {
    CountingQuery q(4);
    q.Where(2, AttrPredicate::Range(lo, 4)).Where(1, AttrPredicate::Point(lo));
    workload.push_back(q);
  }
  {
    CountingQuery q(4);
    q.Where(0, AttrPredicate::Range(1, 3))
        .Where(1, AttrPredicate::Range(2, 5))
        .Where(3, AttrPredicate::Point(1));
    workload.push_back(q);
  }

  // Serial reference.
  std::vector<QueryEstimate> ref;
  for (const auto& q : workload) {
    auto est = answerer.Answer(q);
    ASSERT_TRUE(est.ok());
    ref.push_back(*est);
  }
  CountingQuery gb_base(4);
  gb_base.Where(2, AttrPredicate::Range(0, 2));
  auto gb_ref = answerer.AnswerGroupByAttribute(1, gb_base);
  ASSERT_TRUE(gb_ref.ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < workload.size(); ++i) {
          // Each thread walks the workload at a different offset so
          // distinct queries overlap in time.
          const size_t j = (i + t * 3 + r) % workload.size();
          auto est = answerer.Answer(workload[j]);
          if (!est.ok() || est->expectation != ref[j].expectation ||
              est->variance != ref[j].variance) {
            mismatches.fetch_add(1);
          }
        }
        auto gb = answerer.AnswerGroupByAttribute(1, gb_base);
        if (!gb.ok() || gb->size() != gb_ref->size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t v = 0; v < gb->size(); ++v) {
          if ((*gb)[v].expectation != (*gb_ref)[v].expectation) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace entropydb
