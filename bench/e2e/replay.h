#ifndef ENTROPYDB_BENCH_E2E_REPLAY_H_
#define ENTROPYDB_BENCH_E2E_REPLAY_H_

// In-process replay of wire requests, one at a time, through the public
// calls of each serving layer: request codec -> parser -> result cache ->
// batcher or engine -> per-shard answer -> the chosen source -> response
// codec. The server process cannot be timed from outside layer by layer;
// these calls are the same ones its QUERY and BATCH handlers make.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "entropydb.h"
#include "server/batcher.h"
#include "server/result_cache.h"
#include "trace.h"

namespace e2e {

/// Answers a parsed query the way the server's QUERY handler does. COUNT
/// goes through the counting path, bitwise what the handler's batcher
/// returns; the other kinds weight their attribute by BucketWeights.
entropydb::Result<entropydb::QueryResult> AnswerParsed(
    const entropydb::EntropyEngine& engine,
    const entropydb::ParsedQuery& parsed);

/// The server's result lines for a result: "estimate", then "bound" or
/// "cell" lines (the trailing "cached" line is not included).
std::vector<std::string> ResultLines(const entropydb::QueryResult& result);

/// \brief Replays requests against one engine with a private result cache
/// and batcher of the server's default sizes, recording spans and
/// per-layer samples (microseconds, keyed by metric name).
class Replayer {
 public:
  explicit Replayer(std::shared_ptr<const entropydb::EntropyEngine> engine);

  /// One QUERY request.
  entropydb::Status Query(const std::string& text, uint64_t id, SpanLog* log);
  /// One BATCH frame of COUNT queries.
  entropydb::Status Batch(const std::vector<std::string>& texts, uint64_t id,
                          SpanLog* log);

  const std::map<std::string, std::vector<double>>& samples() const {
    return samples_;
  }
  /// Shards skipped by zone maps / answered, and per-shard routing
  /// decisions that picked a sample / all of them.
  uint64_t shards_pruned() const { return shards_pruned_; }
  uint64_t shards_scanned() const { return shards_scanned_; }
  uint64_t sample_routes() const { return sample_routes_; }
  uint64_t routes() const { return routes_; }

 private:
  /// Times each unpruned shard's answer to `q` (a CountingQuery or an
  /// AggregateQuery filtered by `where`) and then its chosen source's own
  /// answer, and lays those spans end to end from `start` under the
  /// engine span `parent` — the sharded fan-out is sequential. Returns
  /// the summed shard time in ns.
  template <typename Q>
  int64_t Shards(const Q& q, const entropydb::CountingQuery& where,
                 int64_t start, int32_t parent, uint64_t id, SpanLog* log);

  void Sample(const std::string& name, int64_t ns) {
    samples_[name].push_back(ns / 1e3);
  }

  std::shared_ptr<const entropydb::EntropyEngine> engine_;
  entropydb::ResultCache cache_;
  entropydb::QueryBatcher batcher_;
  std::map<std::string, std::vector<double>> samples_;
  uint64_t shards_pruned_ = 0;
  uint64_t shards_scanned_ = 0;
  uint64_t sample_routes_ = 0;
  uint64_t routes_ = 0;
};

}  // namespace e2e

#endif  // ENTROPYDB_BENCH_E2E_REPLAY_H_
