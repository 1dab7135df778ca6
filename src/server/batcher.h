#ifndef ENTROPYDB_SERVER_BATCHER_H_
#define ENTROPYDB_SERVER_BATCHER_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>

#include "engine/engine.h"

namespace entropydb {

/// \brief The server's admission gate: one bound and one deadline around
/// every answer, of every query kind.
///
/// Run admits `n` queries or refuses them all, answers on the calling
/// thread, releases the slots, and checks the deadline:
///
///  * `queue_capacity` bounds the queries admitted and not yet answered,
///    across all callers. A call that does not fit returns
///    kResourceExhausted immediately, before any answer work (the wire
///    layer maps it to SERVER_BUSY); nothing ever blocks on a full gate.
///  * An OK answer that finishes at or after its deadline is returned as
///    kDeadlineExceeded instead, so the caller neither sends nor caches
///    it.
///
/// No request is handed to another thread, so overload degrades to fast
/// typed errors instead of queues and unbounded latency. Thread-safe.
///
/// The class keeps its old name, and Submit/SubmitAsync keep their old
/// signatures, only for the end-to-end benchmark's in-process replay
/// (bench/e2e/replay.cc); both are a few lines over Run, and go once that
/// replay calls Run itself.
class QueryBatcher {
 public:
  struct Options {
    /// Queries admitted and not yet answered beyond this are refused with
    /// kResourceExhausted.
    size_t queue_capacity = 256;
  };

  /// Monotonic counters for STATS.
  struct Stats {
    /// Queries admitted (a call admitting n queries counts n).
    uint64_t accepted = 0;
    /// Calls refused at admission (each counts once, whatever its n).
    uint64_t rejected = 0;
    /// Admitted calls whose OK answer finished past their deadline (each
    /// counts once).
    uint64_t expired = 0;
  };

  explicit QueryBatcher(Options options) : options_(options) {}
  QueryBatcher() : QueryBatcher(Options()) {}

  QueryBatcher(const QueryBatcher&) = delete;
  QueryBatcher& operator=(const QueryBatcher&) = delete;

  /// Admits `n` queries and returns `answer()`, a Result computed on the
  /// calling thread: kResourceExhausted, without calling `answer`, when
  /// the n do not fit; kDeadlineExceeded in place of an OK result that
  /// finished at or after `deadline`.
  template <typename AnswerFn>
  auto Run(size_t n, std::chrono::steady_clock::time_point deadline,
           AnswerFn&& answer) -> decltype(answer()) {
    RETURN_NOT_OK(Admit(n));
    auto result = answer();
    RETURN_NOT_OK(Release(n, result.ok(), deadline));
    return result;
  }

  /// One COUNT through Run: `engine->Answer(query)`, due `deadline` from
  /// now.
  Result<QueryEstimate> Submit(std::shared_ptr<const EntropyEngine> engine,
                               CountingQuery query,
                               std::chrono::milliseconds deadline);

  /// Submit with an absolute deadline, answered before it returns: the
  /// future is already ready. Refusal at admission is the outer error;
  /// every other outcome is the future's.
  Result<std::future<Result<QueryEstimate>>> SubmitAsync(
      std::shared_ptr<const EntropyEngine> engine, CountingQuery query,
      std::chrono::steady_clock::time_point deadline);

  Stats stats() const;

 private:
  /// Takes `n` slots, or refuses with kResourceExhausted.
  Status Admit(size_t n);
  /// Returns `n` slots; kDeadlineExceeded when an `ok` answer finished at
  /// or after `deadline`.
  Status Release(size_t n, bool ok,
                 std::chrono::steady_clock::time_point deadline);

  const Options options_;
  mutable std::mutex mu_;
  /// Queries admitted and not yet answered.
  size_t in_flight_ = 0;
  Stats stats_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SERVER_BATCHER_H_
