#ifndef ENTROPYDB_SERVER_BATCHER_H_
#define ENTROPYDB_SERVER_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/engine.h"

namespace entropydb {

/// \brief Admission control and deadlines for COUNT queries, answered
/// inline or micro-batched into EntropyEngine::AnswerAll.
///
/// The blocking calls answer on the caller's thread. Submit is one
/// query's sequential shard fan-out (EntropyEngine::Answer); SubmitAll is
/// one AnswerAll, whose lock-free workspace fan-out spreads a frame's
/// queries over the thread pool. Neither wakes another thread, so a
/// request that cannot form a batch never pays a hand-off.
///
/// SubmitAsync queues a query instead; a single dispatcher thread drains
/// up to `max_batch` queued queries that target the same engine (one
/// batch never mixes versions) into one AnswerAll call. A query that
/// makes AnswerAll fail is answered alone, so it fails only its own
/// caller.
///
/// Admission control is typed, never blocking-on-full: `queue_capacity`
/// bounds the queries admitted and not yet answered, queued and inline
/// alike, and a submission past it returns kResourceExhausted
/// immediately (the wire layer maps it to SERVER_BUSY). Every request
/// carries a deadline: queued entries that expire are failed with
/// kDeadlineExceeded at dispatch, and a blocking call whose answer
/// finishes past its deadline returns the same code instead of the
/// answer. Overload therefore degrades to fast typed errors instead of
/// unbounded latency.
///
/// Thread-safe. Tests construct with `start_worker` = false and call
/// DrainOnce() to step the dispatcher deterministically.
class QueryBatcher {
 public:
  struct Options {
    /// Admission bound: queries admitted and not yet answered beyond this
    /// are rejected with kResourceExhausted.
    size_t queue_capacity = 256;
    /// Most queued queries one AnswerAll dispatch may carry.
    size_t max_batch = 64;
    /// Spawn the dispatcher thread that drains SubmitAsync entries (false
    /// for deterministic tests, and for callers that only block).
    bool start_worker = true;
  };

  /// Monotonic counters for STATS.
  struct Stats {
    /// Queries admitted (a SubmitAll frame counts each of its queries).
    uint64_t accepted = 0;
    /// Submissions refused at admission (a SubmitAll frame counts once).
    uint64_t rejected = 0;
    /// Queued entries expired at dispatch, plus blocking submissions whose
    /// answer finished past their deadline (a frame counts once).
    uint64_t expired = 0;
    /// Dispatches of queued entries.
    uint64_t batches = 0;
  };

  explicit QueryBatcher(Options options);
  QueryBatcher() : QueryBatcher(Options()) {}
  ~QueryBatcher();

  QueryBatcher(const QueryBatcher&) = delete;
  QueryBatcher& operator=(const QueryBatcher&) = delete;

  /// Enqueues a query against `engine` and returns a future for its
  /// estimate, or kResourceExhausted when admission is full. The future
  /// resolves when a dispatch answers (or expires) the query.
  Result<std::future<Result<QueryEstimate>>> SubmitAsync(
      std::shared_ptr<const EntropyEngine> engine, CountingQuery query,
      std::chrono::steady_clock::time_point deadline);

  /// Admits one query and answers it on the calling thread with
  /// `engine->Answer`: the estimate, kResourceExhausted when admission is
  /// full, or kDeadlineExceeded when the answer finishes after `deadline`.
  Result<QueryEstimate> Submit(std::shared_ptr<const EntropyEngine> engine,
                               CountingQuery query,
                               std::chrono::milliseconds deadline);

  /// Admits all of `queries` or none of them, and answers them on the
  /// calling thread with one `engine->AnswerAll` (slot i answers
  /// queries[i]). Fails like Submit: kResourceExhausted when the frame
  /// does not fit, kDeadlineExceeded when the answers finish late.
  Result<std::vector<QueryEstimate>> SubmitAll(
      std::shared_ptr<const EntropyEngine> engine,
      const std::vector<CountingQuery>& queries,
      std::chrono::milliseconds deadline);

  /// Dispatches one batch inline (test hook; also usable as a manual
  /// pump when constructed without a worker). Returns the number of
  /// queries dispatched or expired.
  size_t DrainOnce();

  /// Stops the dispatcher and fails everything still queued with
  /// kResourceExhausted. Idempotent; the destructor calls it.
  void Stop();

  Stats stats() const;

 private:
  struct Pending {
    std::shared_ptr<const EntropyEngine> engine;
    CountingQuery query;
    std::chrono::steady_clock::time_point deadline;
    std::promise<Result<QueryEstimate>> promise;
  };

  /// Admits `n` queries at once, or rejects them all. Caller holds mu_.
  Status AdmitLocked(size_t n);
  /// Returns the admission slots of `n` answered queries, counting
  /// `expired` of them as expired.
  void Release(size_t n, uint64_t expired);
  /// Ends a blocking submission of `n` queries: releases their slots and
  /// turns a successful answer that finished after `deadline` into
  /// kDeadlineExceeded.
  template <typename T>
  Result<T> Finish(size_t n, std::chrono::steady_clock::time_point deadline,
                   Result<T> answer);

  void WorkerLoop();
  /// Pops up to max_batch entries sharing the front's engine. Caller
  /// holds mu_.
  std::vector<Pending> TakeBatchLocked();

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  /// Queries admitted and not yet answered: queued, dispatching, or being
  /// answered by a blocking call.
  size_t in_flight_ = 0;
  bool stopped_ = false;
  Stats stats_;
  std::thread worker_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SERVER_BATCHER_H_
