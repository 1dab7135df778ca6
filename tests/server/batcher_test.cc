// Admission gate (server/batcher.h): a full gate refuses with a typed
// kResourceExhausted before any answer work, a call admits all of its
// queries or none, an OK answer that finishes past its deadline becomes
// kDeadlineExceeded while errors pass through, every slot comes back, and
// answers through the gate are bitwise the engine's own.

#include "server/batcher.h"

#include <thread>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "maxent/summary.h"

namespace entropydb {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::shared_ptr<const EntropyEngine> SmallEngine(uint64_t seed) {
  auto table = testutil::RandomTable({4, 4, 3}, 400, seed);
  auto summary = EntropySummary::Build(*table, {});
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  return EntropyEngine::FromSummary(*summary);
}

QueryBatcher::Options Capacity(size_t capacity) {
  QueryBatcher::Options opts;
  opts.queue_capacity = capacity;
  return opts;
}

steady_clock::time_point FarDeadline() {
  return steady_clock::now() + milliseconds(60000);
}

Result<int> Seven() { return 7; }

TEST(QueryBatcherTest, FullQueueRejectsWithResourceExhausted) {
  QueryBatcher gate(Capacity(2));
  // While an answer holds both slots, the next call is refused at once and
  // its answer never runs — the wire layer turns this into SERVER_BUSY,
  // never a wait.
  bool inner_ran = false;
  auto outer = gate.Run(2, FarDeadline(), [&]() -> Result<int> {
    auto inner = gate.Run(1, FarDeadline(), [&]() -> Result<int> {
      inner_ran = true;
      return 1;
    });
    EXPECT_FALSE(inner.ok());
    EXPECT_EQ(inner.status().code(), StatusCode::kResourceExhausted);
    return 7;
  });
  ASSERT_TRUE(outer.ok()) << outer.status().ToString();
  EXPECT_EQ(*outer, 7);
  EXPECT_FALSE(inner_ran);
  EXPECT_EQ(gate.stats().accepted, 2u);
  EXPECT_EQ(gate.stats().rejected, 1u);

  // The answer returned its slots.
  EXPECT_TRUE(gate.Run(2, FarDeadline(), Seven).ok());
}

TEST(QueryBatcherTest, RunAdmitsTheWholeCallOrNothing) {
  auto engine = SmallEngine(47);
  QueryBatcher gate(Capacity(4));
  CountingQuery q(3);
  const std::vector<CountingQuery> five(5, q);
  const auto answer_five = [&] { return engine->AnswerAll(five); };
  // One query more than the bound: refused whole, before any answer work
  // (the engine runs no AnswerAll), and counted as one rejection.
  auto over = gate.Run(5, FarDeadline(), answer_five);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gate.stats().rejected, 1u);
  EXPECT_EQ(gate.stats().accepted, 0u);
  EXPECT_EQ(engine->stats().batches, 0u);

  // A query in flight holds its slot: beside it, a full-width call no
  // longer fits, and it fits again once that query is answered.
  const std::vector<CountingQuery> four(4, q);
  const auto answer_four = [&] { return engine->AnswerAll(four); };
  auto held = gate.Run(1, FarDeadline(), [&] {
    auto blocked = gate.Run(4, FarDeadline(), answer_four);
    EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
    return engine->Answer(q);
  });
  EXPECT_TRUE(held.ok()) << held.status().ToString();
  auto fits = gate.Run(4, FarDeadline(), answer_four);
  EXPECT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(engine->stats().batches, 1u);
}

TEST(QueryBatcherTest, SubmitGivesUpAtItsDeadline) {
  // A call never returns OK past its deadline: with 0 ms the answer always
  // finishes late, so it is kDeadlineExceeded and counts as expired (a
  // call once, however many queries it carries).
  auto engine = SmallEngine(29);
  QueryBatcher gate(Capacity(16));
  CountingQuery q(3);
  auto r = gate.Submit(engine, q, milliseconds(0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gate.stats().expired, 1u);
  const std::vector<CountingQuery> two(2, q);
  const auto answer_two = [&] { return engine->AnswerAll(two); };
  auto all = gate.Run(2, steady_clock::now(), answer_two);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(gate.stats().expired, 2u);
  // Late answers still free their admission slots.
  const std::vector<CountingQuery> sixteen(16, q);
  const auto answer_sixteen = [&] { return engine->AnswerAll(sixteen); };
  auto full = gate.Run(16, FarDeadline(), answer_sixteen);
  EXPECT_TRUE(full.ok()) << full.status().ToString();
}

TEST(QueryBatcherTest, FailedAnswersPassThroughAndNeverExpire) {
  // Only an OK answer can be late: an answer's own error reaches the
  // caller unchanged even past the deadline, and frees its slot.
  auto engine = SmallEngine(53);
  QueryBatcher gate(Capacity(1));
  const AggregateQuery wrong_arity = AggregateQuery::Count(CountingQuery(2));
  const auto answer = [&] { return engine->Answer(wrong_arity); };
  auto r = gate.Run(1, steady_clock::now(), answer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gate.stats().expired, 0u);
  EXPECT_TRUE(gate.Run(1, FarDeadline(), Seven).ok());
}

TEST(QueryBatcherTest, AnswersThroughTheGateAreTheEngines) {
  // Run hands back exactly what its answer returned: every aggregate kind
  // and a whole AnswerAll frame, bit for bit.
  auto engine = SmallEngine(43);
  QueryBatcher gate(Capacity(16));
  CountingQuery where(3);
  where.Where(1, AttrPredicate::Range(1, 2));
  const std::vector<double> weights = {0.5, 1.5, 2.5};
  auto expect_engines = [&](const AggregateQuery& q) {
    auto got = gate.Run(1, FarDeadline(), [&] { return engine->Answer(q); });
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = engine->Answer(q);
    ASSERT_TRUE(want.ok());
    const char* kind = AggregateKindName(q.kind);
    EXPECT_EQ(got->estimate.expectation, want->estimate.expectation) << kind;
    EXPECT_EQ(got->estimate.variance, want->estimate.variance) << kind;
    EXPECT_EQ(got->cells.size(), want->cells.size()) << kind;
  };
  expect_engines(AggregateQuery::Count(where));
  expect_engines(AggregateQuery::Sum(2, weights, where));
  expect_engines(AggregateQuery::Avg(2, weights, where));
  expect_engines(AggregateQuery::Quantile(2, weights, 0.5, where));
  expect_engines(AggregateQuery::TopK(2, 2, where));

  std::vector<CountingQuery> queries;
  for (Code c = 0; c < 4; ++c) {
    CountingQuery q(3);
    q.Where(1, AttrPredicate::Point(c));
    if (c % 2 == 1) q.Where(2, AttrPredicate::Point(c % 3));
    queries.push_back(q);
  }
  const auto answer_all = [&] { return engine->AnswerAll(queries); };
  auto gated_all = gate.Run(queries.size(), FarDeadline(), answer_all);
  ASSERT_TRUE(gated_all.ok()) << gated_all.status().ToString();
  auto direct = engine->AnswerAll(queries);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(gated_all->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*gated_all)[i].expectation, (*direct)[i].expectation) << i;
    EXPECT_EQ((*gated_all)[i].variance, (*direct)[i].variance) << i;
  }
  EXPECT_EQ(gate.stats().accepted, 5 + queries.size());
}

TEST(QueryBatcherTest, SubmitAndSubmitAsyncAnswerOnTheCallingThread) {
  // Submit is the engine's own COUNT; SubmitAsync's future is ready when
  // it returns, and a full gate is its outer error.
  auto engine = SmallEngine(41);
  QueryBatcher gate(Capacity(16));
  CountingQuery q(3);
  q.Where(0, AttrPredicate::Point(2));
  auto serial = engine->Answer(q);
  ASSERT_TRUE(serial.ok());
  auto r = gate.Submit(engine, q, milliseconds(60000));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->expectation, serial->expectation);
  EXPECT_EQ(r->variance, serial->variance);

  auto f = gate.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ(f->wait_for(milliseconds(0)), std::future_status::ready);
  auto got = f->get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->expectation, serial->expectation);
  EXPECT_EQ(got->variance, serial->variance);
  EXPECT_EQ(gate.stats().accepted, 2u);

  QueryBatcher closed(Capacity(0));
  auto refused = closed.SubmitAsync(engine, q, FarDeadline());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
}

TEST(QueryBatcherTest, ConcurrentCallsMatchSerialAndReturnEverySlot) {
  // Single queries, frames and SubmitAsync calls share one admission count
  // from several threads: every answer is the serial one, bit for bit, and
  // every slot comes back once the answers are in.
  auto engine = SmallEngine(59);
  constexpr size_t kCapacity = 32;
  QueryBatcher gate(Capacity(kCapacity));
  std::vector<CountingQuery> queries;
  std::vector<QueryEstimate> serial;
  for (Code a = 0; a < 4; ++a) {
    for (Code b = 0; b < 3; ++b) {
      CountingQuery q(3);
      q.Where(0, AttrPredicate::Point(a));
      q.Where(2, AttrPredicate::Point(b));
      auto est = engine->Answer(q);
      ASSERT_TRUE(est.ok());
      queries.push_back(q);
      serial.push_back(*est);
    }
  }
  auto same = [&](const Result<QueryEstimate>& got, size_t i) {
    return got.ok() && got->expectation == serial[i].expectation &&
           got->variance == serial[i].variance;
  };

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 40;
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t n = queries.size();
      for (size_t r = 0; r < kRounds; ++r) {
        const size_t i = (t * kRounds + r) % n;
        switch ((t + r) % 3) {
          case 0: {
            auto one = gate.Submit(engine, queries[i], milliseconds(60000));
            if (!same(one, i)) ++mismatches[t];
            break;
          }
          case 1: {
            const size_t slots[] = {i, (i + 1) % n, (i + 5) % n};
            std::vector<CountingQuery> frame;
            for (size_t k : slots) frame.push_back(queries[k]);
            const auto answer = [&] { return engine->AnswerAll(frame); };
            auto all = gate.Run(frame.size(), FarDeadline(), answer);
            for (size_t k = 0; k < 3; ++k) {
              if (!all.ok() || !same((*all)[k], slots[k])) ++mismatches[t];
            }
            break;
          }
          default: {
            auto f = gate.SubmitAsync(engine, queries[i], FarDeadline());
            if (!f.ok() || !same(f->get(), i)) ++mismatches[t];
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
  EXPECT_EQ(gate.stats().rejected, 0u);
  // Every admitted query was answered, so a full-width call fits again.
  EXPECT_TRUE(gate.Run(kCapacity, FarDeadline(), Seven).ok());
}

}  // namespace
}  // namespace entropydb
