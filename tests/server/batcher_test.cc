// Query batcher (server/batcher.h): bounded admission returns typed
// SERVER_BUSY instead of hanging, deadlines expire queued work and late
// inline answers, one dispatch never mixes engines (= versions), one bad
// query fails only itself, and inline and batched answers match the
// serial path. Built with start_worker = false so each test steps the
// dispatcher deterministically, except where a test needs the worker.

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

QueryBatcher::Options ManualOptions(size_t capacity) {
  QueryBatcher::Options opts;
  opts.queue_capacity = capacity;
  opts.max_batch = 64;
  opts.start_worker = false;
  return opts;
}

steady_clock::time_point FarDeadline() {
  return steady_clock::now() + milliseconds(60000);
}

TEST(QueryBatcherTest, FullQueueRejectsWithResourceExhausted) {
  auto engine = SmallEngine(11);
  QueryBatcher batcher(ManualOptions(2));
  CountingQuery q(3);
  auto a = batcher.SubmitAsync(engine, q, FarDeadline());
  auto b = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Third submit against capacity 2: typed rejection, immediately — the
  // wire layer turns this into SERVER_BUSY, never an unbounded queue.
  auto c = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().accepted, 2u);
  EXPECT_EQ(batcher.stats().rejected, 1u);

  // Draining frees capacity again.
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  auto d = batcher.SubmitAsync(engine, q, FarDeadline());
  EXPECT_TRUE(d.ok());
}

TEST(QueryBatcherTest, BatchedAnswersMatchSerialAnswers) {
  auto engine = SmallEngine(13);
  QueryBatcher batcher(ManualOptions(16));
  std::vector<CountingQuery> queries;
  for (Code c = 0; c < 4; ++c) {
    CountingQuery q(3);
    q.Where(0, AttrPredicate::Point(c));
    queries.push_back(q);
  }
  std::vector<std::future<Result<QueryEstimate>>> futures;
  for (const auto& q : queries) {
    auto f = batcher.SubmitAsync(engine, q, FarDeadline());
    ASSERT_TRUE(f.ok());
    futures.push_back(std::move(*f));
  }
  EXPECT_EQ(batcher.DrainOnce(), 4u);
  EXPECT_EQ(batcher.stats().batches, 1u);  // one AnswerAll for all four
  for (size_t i = 0; i < queries.size(); ++i) {
    auto batched = futures[i].get();
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    auto serial = engine->Answer(queries[i]);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(batched->expectation, serial->expectation);
    EXPECT_EQ(batched->variance, serial->variance);
  }
}

TEST(QueryBatcherTest, OneDispatchNeverMixesEngines) {
  // Two engines stand in for two pinned versions: answers must come from
  // the engine the query was submitted against, so a batch takes only the
  // front-run of queries sharing the front's engine.
  auto v1 = SmallEngine(17);
  auto v2 = SmallEngine(19);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto a = batcher.SubmitAsync(v1, q, FarDeadline());
  auto b = batcher.SubmitAsync(v2, q, FarDeadline());
  auto c = batcher.SubmitAsync(v1, q, FarDeadline());
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  // First drain: both v1 queries (the interleaved v2 one keeps its turn).
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  EXPECT_TRUE(a->get().ok());
  EXPECT_TRUE(c->get().ok());
  EXPECT_EQ(b->wait_for(milliseconds(0)), std::future_status::timeout);
  // Second drain answers the v2 query.
  EXPECT_EQ(batcher.DrainOnce(), 1u);
  EXPECT_TRUE(b->get().ok());
  EXPECT_EQ(batcher.stats().batches, 2u);
}

TEST(QueryBatcherTest, ExpiredQueriesFailWithDeadlineExceeded) {
  auto engine = SmallEngine(23);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto expired =
      batcher.SubmitAsync(engine, q, steady_clock::now() - milliseconds(1));
  auto live = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(expired.ok());
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(batcher.DrainOnce(), 2u);
  auto r = expired->get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(live->get().ok());
  EXPECT_EQ(batcher.stats().expired, 1u);
}

TEST(QueryBatcherTest, SubmitGivesUpAtItsDeadline) {
  // A blocking call never returns OK past its deadline: with 0 ms the
  // inline answer always finishes late, so it is kDeadlineExceeded and
  // counts as expired (a frame once, however many queries it carries).
  auto engine = SmallEngine(29);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto r = batcher.Submit(engine, q, milliseconds(0));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(batcher.stats().expired, 1u);
  auto all = batcher.SubmitAll(engine, {q, q}, milliseconds(0));
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(batcher.stats().expired, 2u);
  // Late answers still free their admission slots.
  auto full = batcher.SubmitAll(engine, std::vector<CountingQuery>(16, q),
                                milliseconds(60000));
  EXPECT_TRUE(full.ok()) << full.status().ToString();
}

TEST(QueryBatcherTest, SubmitAnswersInlineWithoutAWorker) {
  // Nobody drains the queue, yet Submit answers: it runs Answer on the
  // calling thread, bitwise the engine's own estimate.
  auto engine = SmallEngine(41);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  q.Where(0, AttrPredicate::Point(2));
  auto r = batcher.Submit(engine, q, milliseconds(60000));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto serial = engine->Answer(q);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(r->expectation, serial->expectation);
  EXPECT_EQ(r->variance, serial->variance);
  EXPECT_EQ(batcher.stats().accepted, 1u);
  EXPECT_EQ(batcher.stats().batches, 0u);
}

TEST(QueryBatcherTest, SubmitAllMatchesAnswerAll) {
  auto engine = SmallEngine(43);
  QueryBatcher batcher(ManualOptions(16));
  std::vector<CountingQuery> queries;
  for (Code c = 0; c < 4; ++c) {
    CountingQuery q(3);
    q.Where(1, AttrPredicate::Point(c));
    if (c % 2 == 1) q.Where(2, AttrPredicate::Point(c % 3));
    queries.push_back(q);
  }
  auto inline_all = batcher.SubmitAll(engine, queries, milliseconds(60000));
  ASSERT_TRUE(inline_all.ok()) << inline_all.status().ToString();
  auto direct = engine->AnswerAll(queries);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(inline_all->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ((*inline_all)[i].expectation, (*direct)[i].expectation) << i;
    EXPECT_EQ((*inline_all)[i].variance, (*direct)[i].variance) << i;
  }
  EXPECT_EQ(batcher.stats().accepted, queries.size());
}

TEST(QueryBatcherTest, SubmitAllAdmitsTheWholeFrameOrNothing) {
  auto engine = SmallEngine(47);
  QueryBatcher batcher(ManualOptions(4));
  CountingQuery q(3);
  // One query more than the bound: refused whole, before any answer work
  // (the engine runs no AnswerAll), and counted as one rejection.
  auto over = batcher.SubmitAll(engine, std::vector<CountingQuery>(5, q),
                                milliseconds(60000));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().rejected, 1u);
  EXPECT_EQ(batcher.stats().accepted, 0u);
  EXPECT_EQ(engine->stats().batches, 0u);

  // Queued entries hold slots too: with one queued, a full-width frame no
  // longer fits until a dispatch answers it.
  auto queued = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(queued.ok());
  auto blocked = batcher.SubmitAll(engine, std::vector<CountingQuery>(4, q),
                                   milliseconds(60000));
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.DrainOnce(), 1u);
  EXPECT_TRUE(queued->get().ok());
  auto fits = batcher.SubmitAll(engine, std::vector<CountingQuery>(4, q),
                                milliseconds(60000));
  EXPECT_TRUE(fits.ok()) << fits.status().ToString();
}

TEST(QueryBatcherTest, PoisonQueryFailsOnlyItself) {
  // The middle query has the wrong arity, which fails AnswerAll as a
  // whole; its neighbours in the same dispatch still get their answers,
  // bitwise the serial ones.
  auto engine = SmallEngine(53);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery first(3);
  first.Where(0, AttrPredicate::Point(1));
  CountingQuery last(3);
  last.Where(2, AttrPredicate::Point(2));
  auto a = batcher.SubmitAsync(engine, first, FarDeadline());
  auto bad = batcher.SubmitAsync(engine, CountingQuery(2), FarDeadline());
  auto c = batcher.SubmitAsync(engine, last, FarDeadline());
  ASSERT_TRUE(a.ok() && bad.ok() && c.ok());
  EXPECT_EQ(batcher.DrainOnce(), 3u);

  auto poisoned = bad->get();
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInvalidArgument);
  auto expect_serial = [&](std::future<Result<QueryEstimate>>& f,
                           const CountingQuery& q) {
    auto got = f.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto serial = engine->Answer(q);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(got->expectation, serial->expectation);
    EXPECT_EQ(got->variance, serial->variance);
  };
  expect_serial(*a, first);
  expect_serial(*c, last);
}

TEST(QueryBatcherTest, StopFailsEverythingQueued) {
  auto engine = SmallEngine(31);
  QueryBatcher batcher(ManualOptions(16));
  CountingQuery q(3);
  auto f = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(f.ok());
  batcher.Stop();
  auto r = f->get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  // After Stop, new submissions are refused.
  auto after = batcher.SubmitAsync(engine, q, FarDeadline());
  EXPECT_FALSE(after.ok());
}

TEST(QueryBatcherTest, WorkerThreadDrainsWithoutManualPumping) {
  auto engine = SmallEngine(37);
  QueryBatcher::Options opts;
  opts.queue_capacity = 16;
  opts.start_worker = true;
  QueryBatcher batcher(opts);
  CountingQuery q(3);
  q.Where(1, AttrPredicate::Point(1));
  auto f = batcher.SubmitAsync(engine, q, FarDeadline());
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  auto r = f->get();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto serial = engine->Answer(q);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(r->expectation, serial->expectation);
}

TEST(QueryBatcherTest, ConcurrentInlineAndQueuedSubmitsMatchSerial) {
  // Inline Submit/SubmitAll and queued SubmitAsync share one admission
  // count while the worker drains: every answer is the serial one, bit
  // for bit, and every slot comes back once the answers are in.
  auto engine = SmallEngine(59);
  constexpr size_t kCapacity = 32;
  QueryBatcher::Options opts;
  opts.queue_capacity = kCapacity;
  opts.start_worker = true;
  QueryBatcher batcher(opts);
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
            auto one = batcher.Submit(engine, queries[i], milliseconds(60000));
            if (!same(one, i)) ++mismatches[t];
            break;
          }
          case 1: {
            const size_t slots[] = {i, (i + 1) % n, (i + 5) % n};
            std::vector<CountingQuery> frame;
            for (size_t k : slots) frame.push_back(queries[k]);
            auto all = batcher.SubmitAll(engine, frame, milliseconds(60000));
            for (size_t k = 0; k < 3; ++k) {
              if (!all.ok() || !same((*all)[k], slots[k])) ++mismatches[t];
            }
            break;
          }
          default: {
            auto f = batcher.SubmitAsync(engine, queries[i], FarDeadline());
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
  EXPECT_EQ(batcher.stats().rejected, 0u);
  // Every admitted query was answered, so a full-width frame fits again.
  auto full = batcher.SubmitAll(
      engine, std::vector<CountingQuery>(kCapacity, queries[0]),
      milliseconds(60000));
  EXPECT_TRUE(full.ok()) << full.status().ToString();
}

}  // namespace
}  // namespace entropydb
